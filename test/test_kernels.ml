(** Integration tests: every benchmark, every technique, end to end —
    compile, optimize, simulate, verify against the software reference
    (the ModelSim step of the paper's methodology, Section 6.1). *)

open Helpers

let techniques =
  [
    ("naive", fun (_ : Minic.Codegen.compiled) -> ());
    ( "crush",
      fun c ->
        ignore
          (Crush.Share.crush c.Minic.Codegen.graph
             ~critical_loops:c.Minic.Codegen.critical_loops) );
    ( "inorder",
      fun c ->
        ignore
          (Crush.Inorder.share c.Minic.Codegen.graph
             ~critical_loops:c.Minic.Codegen.critical_loops
             ~conditional_bbs:c.Minic.Codegen.conditional_bbs) );
  ]

let end_to_end (bench : Kernels.Registry.bench) (tname, transform) () =
  let c = compile bench.Kernels.Registry.source in
  transform c;
  let v = Kernels.Harness.run_circuit bench c.Minic.Codegen.graph in
  if not v.Kernels.Harness.functionally_correct then
    Alcotest.failf "%s/%s: %a" bench.Kernels.Registry.name tname
      Kernels.Harness.pp_verdict v

let fast_token_end_to_end (bench : Kernels.Registry.bench) shared () =
  let c =
    compile ~strategy:Minic.Codegen.Fast_token bench.Kernels.Registry.source
  in
  if shared then
    ignore
      (Crush.Share.crush c.Minic.Codegen.graph
         ~critical_loops:c.Minic.Codegen.critical_loops);
  let v = Kernels.Harness.run_circuit bench c.Minic.Codegen.graph in
  if not v.Kernels.Harness.functionally_correct then
    Alcotest.failf "%s/fast-token: %a" bench.Kernels.Registry.name
      Kernels.Harness.pp_verdict v

let test_determinism () =
  (* Same seed, same cycle count, twice. *)
  let run () =
    let bench = Kernels.Registry.find "bicg" in
    let c = compile bench.Kernels.Registry.source in
    (Kernels.Harness.run_circuit bench c.Minic.Codegen.graph).Kernels.Harness.cycles
  in
  checki "deterministic cycles" (run ()) (run ())

let test_different_seeds_change_data () =
  let bench = Kernels.Registry.find "gsum" in
  let a = Kernels.Registry.fresh_inputs ~seed:1 bench in
  let b = Kernels.Registry.fresh_inputs ~seed:2 bench in
  checkb "seeded data differs"
    (Kernels.Reference.get a "a" <> Kernels.Reference.get b "a")

let test_registry_lookup () =
  checki "eleven benchmarks" 11 (List.length Kernels.Registry.all);
  Alcotest.check_raises "unknown bench"
    (Invalid_argument "unknown benchmark nope") (fun () ->
      ignore (Kernels.Registry.find "nope"))

let test_unrolled_table1_circuit () =
  let bench, ast = Kernels.Registry.gesummv_unrolled ~n:15 ~factor:15 in
  let c = Minic.Codegen.compile ast in
  ignore
    (Crush.Share.crush c.Minic.Codegen.graph
       ~critical_loops:c.Minic.Codegen.critical_loops);
  let v = Kernels.Harness.run_circuit bench c.Minic.Codegen.graph in
  checkb "unrolled + shared correct" v.Kernels.Harness.functionally_correct

(* The compile benchmark's exact counts: every kernel through the five
   flows of Tables 2 and 3 (BB Naive, In-order, CRUSH; fast-token Naive,
   CRUSH), summed.  IR size is taken after the frontend, area after the
   sharing pass.  Any drift in the frontend, either sharing pass or the
   area model shows here. *)
let test_compile_exact_counts () =
  let flows =
    Minic.Codegen.[
      (Bb_ordered, `Naive); (Bb_ordered, `Inorder); (Bb_ordered, `Crush);
      (Fast_token, `Naive); (Fast_token, `Crush);
      ]
  in
  let units = ref 0 and groups = ref 0 and evals = ref 0 in
  let area = ref Analysis.Area.zero in
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      List.iter
        (fun (strategy, technique) ->
          let c = compile ~strategy b.source in
          units := !units + Dataflow.Graph.live_unit_count c.graph;
          (match technique with
          | `Naive -> ()
          | `Crush ->
              let r = Crush.Share.crush c.graph ~critical_loops:c.critical_loops in
              groups := !groups + List.length r.groups
          | `Inorder ->
              let r =
                Crush.Inorder.share c.graph ~critical_loops:c.critical_loops
                  ~conditional_bbs:c.conditional_bbs
              in
              groups := !groups + List.length r.groups;
              evals := !evals + r.evaluations);
          area := Analysis.Area.(!area ++ total c.graph))
        flows)
    Kernels.Registry.all;
  checki "minic.units" 9448 !units;
  checki "crush.groups" 61 !groups;
  checki "crush.inorder_evals" 95 !evals;
  checki "LUTs" 272193 !area.luts;
  checki "FFs" 300880 !area.ffs;
  checki "DSPs" 600 !area.dsps

let suite =
  let full_matrix =
    List.concat_map
      (fun (bench : Kernels.Registry.bench) ->
        List.map
          (fun (tname, _ as t) ->
            ( Fmt.str "%s/%s end-to-end" bench.Kernels.Registry.name tname,
              `Slow,
              end_to_end bench t ))
          techniques)
      Kernels.Registry.all
  in
  let fast_matrix =
    List.concat_map
      (fun name ->
        let bench = Kernels.Registry.find name in
        [
          (Fmt.str "%s/fast-token end-to-end" name, `Slow,
           fast_token_end_to_end bench false);
          (Fmt.str "%s/fast-token+crush end-to-end" name, `Slow,
           fast_token_end_to_end bench true);
        ])
      [ "atax"; "gsum"; "gesummv"; "syr2k" ]
  in
  full_matrix @ fast_matrix
  @ [
      ("determinism", `Quick, test_determinism);
      ("seeded data", `Quick, test_different_seeds_change_data);
      ("registry", `Quick, test_registry_lookup);
      ("compile exact counts (11 kernels x 5 flows)", `Quick,
       test_compile_exact_counts);
      ("table-1 circuit (x15)", `Slow, test_unrolled_table1_circuit);
    ]
