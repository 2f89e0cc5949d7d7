(** Differential oracle: the frozen pre-rewrite engine and sanitizer
    ([Oracle_engine], [Oracle_sanitizer] — verbatim copies of the
    graph-of-records implementation) against the data-oriented rewrite
    in [Sim].  The rewrite's contract is bit-identity, not mere
    functional equivalence: cycle counts, transfer counts, exit values,
    perturbation counters, the full observability event stream and the
    sanitizer verdicts (invariant, cycle, unit, detail) must all match
    the oracle on every kernel, technique, chaos seed, paper example,
    fault injection and random circuit below.  The same suite pins the
    flat-array cycle-ratio analysis to its frozen list-based original
    ([Oracle_cycle_ratio]). *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Event-stream digests.  Both engines emit structurally identical
   event types; each event folds into a running order-sensitive hash,
   so two streams digest equal iff they agree event-for-event without
   either side materializing (or allocating strings for) the whole
   stream. *)

type digest = { mutable h : int; mutable n : int }

let fresh_digest () = { h = 0; n = 0 }

let fold d key =
  d.h <- ((d.h * 486187739) + Hashtbl.hash key) land max_int;
  d.n <- d.n + 1

let oracle_sink d : Oracle_engine.sink = function
  | Oracle_engine.E_fire { cycle; uid } -> fold d (0, cycle, uid, 0)
  | Oracle_engine.E_transfer { cycle; cid; data } ->
      fold d (1, cycle, cid, data)
  | Oracle_engine.E_stall { cycle; cid; reason } ->
      fold d (2, cycle, cid, Oracle_engine.string_of_stall_reason reason)
  | Oracle_engine.E_credit { cycle; uid; delta; count } ->
      fold d (3, cycle, uid, delta, count)
  | Oracle_engine.E_grant { cycle; uid; port } -> fold d (4, cycle, uid, port)

let rewrite_sink d : Sim.Engine.sink = function
  | Sim.Engine.E_fire { cycle; uid } -> fold d (0, cycle, uid, 0)
  | Sim.Engine.E_transfer { cycle; cid; data } -> fold d (1, cycle, cid, data)
  | Sim.Engine.E_stall { cycle; cid; reason } ->
      fold d (2, cycle, cid, Sim.Engine.string_of_stall_reason reason)
  | Sim.Engine.E_credit { cycle; uid; delta; count } ->
      fold d (3, cycle, uid, delta, count)
  | Sim.Engine.E_grant { cycle; uid; port } -> fold d (4, cycle, uid, port)

(* ------------------------------------------------------------------ *)
(* The differential runner: one graph, two engines, fresh identically
   filled memories, attached event sinks; every observable of the two
   runs must agree. *)

let check_stats name (o : Oracle_engine.stats) (r : Sim.Engine.stats) =
  Alcotest.(check string)
    (name ^ ": status")
    (Fmt.str "%a" Oracle_engine.pp_status o.Oracle_engine.status)
    (Fmt.str "%a" Sim.Engine.pp_status r.Sim.Engine.status);
  checki (name ^ ": cycles") o.Oracle_engine.cycles r.Sim.Engine.cycles;
  checki (name ^ ": transfers") o.Oracle_engine.transfers
    r.Sim.Engine.transfers;
  checkb
    (name ^ ": exit values")
    (o.Oracle_engine.exit_values = r.Sim.Engine.exit_values);
  checkb
    (name ^ ": perturbation counters")
    (o.Oracle_engine.perturbations = r.Sim.Engine.perturbations)

let diff_run ?(name = "circuit") ?chaos ?(max_cycles = 2_000_000)
    ?(fill = fun (_ : Sim.Memory.t) -> ()) g =
  let mem_o = Sim.Memory.of_graph g and mem_r = Sim.Memory.of_graph g in
  fill mem_o;
  fill mem_r;
  let do_ = fresh_digest () and dr = fresh_digest () in
  let out_o =
    Oracle_engine.run ~max_cycles ?chaos ~memory:mem_o ~sink:(oracle_sink do_)
      g
  in
  let out_r =
    Sim.Engine.run ~max_cycles ?chaos ~memory:mem_r ~sink:(rewrite_sink dr) g
  in
  check_stats name out_o.Oracle_engine.stats out_r.Sim.Engine.stats;
  checki (name ^ ": event count") do_.n dr.n;
  checki (name ^ ": event digest") do_.h dr.h;
  (mem_o, mem_r)

(* ------------------------------------------------------------------ *)
(* Kernels: every benchmark x every technique, then every benchmark
   under three chaos seeds.  The sharing passes mutate the graph in
   place; simulation does not, so one transformed graph feeds both
   engines. *)

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

let kernel_diff (bench : Kernels.Registry.bench) transform ?chaos_seed () =
  let c = compile bench.Kernels.Registry.source in
  transform c;
  let g = c.Minic.Codegen.graph in
  let inputs = Kernels.Registry.fresh_inputs ~seed:42 bench in
  let fill m =
    Hashtbl.iter (fun arr data -> Sim.Memory.set_floats m arr data) inputs
  in
  let chaos = Option.map (fun s -> Sim.Chaos.default ~seed:s) chaos_seed in
  let name =
    Fmt.str "%s%a" bench.Kernels.Registry.name
      Fmt.(option (fmt "/seed%d"))
      chaos_seed
  in
  let mem_o, mem_r = diff_run ~name ?chaos ~fill g in
  (* Result arrays must match float-for-float, not just within the
     harness tolerance. *)
  List.iter
    (fun (arr, _) ->
      checkb
        (name ^ ": memory " ^ arr)
        (Sim.Memory.get_floats mem_o arr = Sim.Memory.get_floats mem_r arr))
    bench.Kernels.Registry.arrays

let kernel_cases =
  List.concat_map
    (fun (bench : Kernels.Registry.bench) ->
      List.map
        (fun (tname, transform) ->
          Alcotest.test_case
            (Fmt.str "%s/%s" bench.Kernels.Registry.name tname)
            `Slow
            (kernel_diff bench transform))
        techniques)
    Kernels.Registry.all

let kernel_chaos_cases =
  List.concat_map
    (fun (bench : Kernels.Registry.bench) ->
      List.map
        (fun seed ->
          let _, crush = List.nth techniques 1 in
          Alcotest.test_case
            (Fmt.str "%s/crush/chaos%d" bench.Kernels.Registry.name seed)
            `Slow
            (kernel_diff bench crush ~chaos_seed:seed))
        [ 1; 2; 3 ])
    Kernels.Registry.all

(* ------------------------------------------------------------------ *)
(* Paper examples, plain and under chaos. *)

let test_paper_examples () =
  let fig1 = (Crush.Paper_examples.fig1 ()).Crush.Paper_examples.graph in
  ignore (diff_run ~name:"fig1" fig1);
  ignore
    (diff_run ~name:"fig1/chaos" ~chaos:(Sim.Chaos.default ~seed:7) fig1);
  let fig5 = (Crush.Paper_examples.fig5 ()).Crush.Paper_examples.graph in
  ignore (diff_run ~name:"fig5" fig5)

(* ------------------------------------------------------------------ *)
(* Fault injections: both engines must wedge at the same cycle, and
   both sanitizers must convict the same invariant on the same unit at
   the same cycle with the same detail string. *)

let oracle_violation ?(max_cycles = 100_000) g =
  let memory = Sim.Memory.of_graph g in
  match
    Oracle_engine.run ~max_cycles ~memory
      ~monitor:(Oracle_sanitizer.monitor ())
      g
  with
  | (_ : Oracle_engine.outcome) -> None
  | exception Oracle_sanitizer.Violation v -> Some v

let rewrite_violation ?(max_cycles = 100_000) g =
  let memory = Sim.Memory.of_graph g in
  match
    Sim.Engine.run ~max_cycles ~memory ~monitor:(Sim.Sanitizer.monitor ()) g
  with
  | (_ : Sim.Engine.outcome) -> None
  | exception Sim.Sanitizer.Violation v -> Some v

let test_fault fault () =
  let name = Crush.Faults.describe fault in
  let g = Crush.Faults.inject (Crush.Paper_examples.fig1 ()) fault in
  (* Unmonitored: identical deadlock. *)
  ignore (diff_run ~name ~max_cycles:100_000 g);
  (* Monitored: identical verdict. *)
  match (oracle_violation g, rewrite_violation g) with
  | Some ov, Some rv ->
      Alcotest.(check string)
        (name ^ ": verdict")
        (Fmt.str "%a" Oracle_sanitizer.pp_violation ov)
        (Fmt.str "%a" Sim.Sanitizer.pp_violation rv)
  | None, _ -> Alcotest.failf "%s: oracle sanitizer stayed silent" name
  | _, None -> Alcotest.failf "%s: rewrite sanitizer stayed silent" name

(* Clean circuits: both sanitizers must stay silent (and not perturb
   the run) on a CRUSH-shared kernel. *)
let test_sanitizer_silence () =
  let bench = Kernels.Registry.find "syr2k" in
  let c = compile bench.Kernels.Registry.source in
  ignore
    (Crush.Share.crush c.Minic.Codegen.graph
       ~critical_loops:c.Minic.Codegen.critical_loops);
  let g = c.Minic.Codegen.graph in
  let inputs = Kernels.Registry.fresh_inputs ~seed:42 bench in
  let fill m =
    Hashtbl.iter (fun arr data -> Sim.Memory.set_floats m arr data) inputs
  in
  let mem_o = Sim.Memory.of_graph g and mem_r = Sim.Memory.of_graph g in
  fill mem_o;
  fill mem_r;
  let out_o =
    Oracle_engine.run ~memory:mem_o ~monitor:(Oracle_sanitizer.monitor ()) g
  in
  let out_r =
    Sim.Engine.run ~memory:mem_r ~monitor:(Sim.Sanitizer.monitor ()) g
  in
  check_stats "syr2k/sanitized" out_o.Oracle_engine.stats
    out_r.Sim.Engine.stats

(* ------------------------------------------------------------------ *)
(* Probe self-consistency: the fast cycle-existence probe was rewritten
   on flat arrays; on every settled state of a wedging circuit it must
   agree with the full SCC-partitioning probe it summarizes. *)

let test_probe_consistency () =
  List.iter
    (fun fault ->
      let g = Crush.Faults.inject (Crush.Paper_examples.fig1 ()) fault in
      let checked = ref 0 in
      let monitor sim ~cycle = function
        | Sim.Engine.After_settle ->
            let fast = Sim.Forensics.probe_core_exists sim in
            let full =
              (Sim.Forensics.probe sim ~cycle).Sim.Forensics.cores <> []
            in
            if fast <> full then
              Alcotest.failf "%s: probe_core_exists %b but probe cores %b"
                (Crush.Faults.describe fault)
                fast full;
            incr checked
        | Sim.Engine.After_step -> ()
      in
      ignore
        (Sim.Engine.run ~max_cycles:3_000 ~memory:(Sim.Memory.of_graph g)
           ~monitor g);
      checkb "probed" (!checked > 0))
    Crush.Faults.all

(* ------------------------------------------------------------------ *)
(* Random circuits: generated kernels (plain and under a random chaos
   seed) and random builder circuits through the buffer-chain shapes.
   diff_run raises on any divergence, which QCheck2 reports with the
   shrunk counterexample. *)

let prop_random_kernels =
  qtest ~count:12 "random kernels: oracle = rewrite"
    Test_properties.gen_kernel_ast (fun kernel ->
      let src = Minic.Print.to_string kernel in
      let c = compile src in
      let rng = Kernels.Data.create (Hashtbl.hash src) in
      let data = Kernels.Data.signed_array rng 10 in
      let fill m = Sim.Memory.set_floats m "x" data in
      ignore (diff_run ~name:"random kernel" ~fill c.Minic.Codegen.graph);
      true)

let prop_random_kernels_chaos =
  qtest ~count:8 "random kernels under chaos: oracle = rewrite"
    ~print:(fun (kernel, seed) ->
      Fmt.str "chaos seed %d on:@.%s" seed (Minic.Print.to_string kernel))
    QCheck2.Gen.(pair Test_properties.gen_kernel_ast (int_range 0 1_000_000))
    (fun (kernel, seed) ->
      let src = Minic.Print.to_string kernel in
      let c = compile src in
      ignore
        (Crush.Share.crush c.Minic.Codegen.graph
           ~critical_loops:c.Minic.Codegen.critical_loops);
      let rng = Kernels.Data.create (Hashtbl.hash src) in
      let data = Kernels.Data.signed_array rng 10 in
      let fill m = Sim.Memory.set_floats m "x" data in
      ignore
        (diff_run ~name:"random kernel"
           ~chaos:(Sim.Chaos.default ~seed)
           ~fill c.Minic.Codegen.graph);
      true)

let prop_random_builder =
  qtest ~count:25 "random builder circuits: oracle = rewrite"
    Test_properties.gen_buffer_chain (fun chain ->
      let n = 10 in
      let g =
        int_stream ~n (fun b i ->
            Dataflow.Builder.declare_memory b "m" n;
            let w =
              List.fold_left
                (fun w (transparent, slots) ->
                  if transparent then Dataflow.Builder.slack b w slots ~loop:0
                  else Dataflow.Builder.reg b w ~slots:(max 2 slots) ~loop:0)
                i chain
            in
            ignore (Dataflow.Builder.store b ~memory:"m" w w ~loop:0))
      in
      ignore (diff_run ~name:"buffer chain" g);
      true)

(* ------------------------------------------------------------------ *)
(* Cycle-ratio oracle: the flat-array analysis in [Analysis.Cycle_ratio]
   against the frozen list-based [Oracle_cycle_ratio].  The contract is
   bit-identity: the same variant, and for [Ratio] the same float bits. *)

let ratio_string = function
  | Oracle_cycle_ratio.Ratio r -> Fmt.str "Ratio %h" r
  | Oracle_cycle_ratio.Unbounded -> "Unbounded"
  | Oracle_cycle_ratio.Acyclic -> "Acyclic"

let of_rewrite = function
  | Analysis.Cycle_ratio.Ratio r -> Oracle_cycle_ratio.Ratio r
  | Analysis.Cycle_ratio.Unbounded -> Oracle_cycle_ratio.Unbounded
  | Analysis.Cycle_ratio.Acyclic -> Oracle_cycle_ratio.Acyclic

let check_edges name edges =
  Alcotest.(check bool)
    (name ^ ": has_cycle")
    (Oracle_cycle_ratio.has_cycle edges)
    (Analysis.Cycle_ratio.has_cycle edges);
  Alcotest.(check string)
    (name ^ ": compute")
    (ratio_string (Oracle_cycle_ratio.compute edges))
    (ratio_string (of_rewrite (Analysis.Cycle_ratio.compute edges)))

let loop_edges g l =
  let scope = Hashtbl.create 97 in
  List.iter (fun u -> Hashtbl.replace scope u ()) (Analysis.Cfc.units_of_loop g l);
  Analysis.Timed_graph.edges g ~in_scope:(Hashtbl.mem scope)

(* Every loop CFC of every kernel, both codegen strategies, before and
   after the CRUSH pass, plus each whole circuit. *)
let test_cycle_ratio_kernels () =
  let checked = ref 0 in
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      List.iter
        (fun (sname, strategy) ->
          let c = compile ~strategy b.source in
          let g = c.Minic.Codegen.graph in
          let check_graph stage =
            List.iter
              (fun l ->
                incr checked;
                check_edges
                  (Fmt.str "%s/%s/%s loop %d" b.name sname stage l)
                  (loop_edges g l))
              (Analysis.Cfc.loop_ids g);
            check_edges
              (Fmt.str "%s/%s/%s whole circuit" b.name sname stage)
              (Analysis.Timed_graph.edges g)
          in
          check_graph "compiled";
          ignore
            (Crush.Share.crush g ~critical_loops:c.Minic.Codegen.critical_loops);
          check_graph "crush")
        Minic.Codegen.[ ("bb", Bb_ordered); ("ft", Fast_token) ])
    Kernels.Registry.all;
  checkb "loop CFCs checked" (!checked > 0)

(* In-order's rotation rings, replayed: the greedy merge loop of
   [Inorder.share], visiting candidate pairs in its order and deciding
   with its own [rotation_preserves_ii], records for every vetted group
   each critical CFC's edges with the rotation ring added, built as
   [Inorder] builds them.  The evaluation count must match [share]'s, so
   the replay covers every edge set the optimizer analyses. *)
let rotation_ring_sets (c : Minic.Codegen.compiled) =
  let g = c.graph in
  let ctx = Crush.Context.make g ~critical_loops:c.critical_loops in
  let program_order ops =
    List.sort
      (fun a b ->
        compare (Dataflow.Graph.bb_of g a, a) (Dataflow.Graph.bb_of g b, b))
      ops
  in
  let sets = ref [] and evaluations = ref 0 in
  let record ops =
    List.iter
      (fun (cfc : Analysis.Cfc.t) ->
        let members = program_order (List.filter (Analysis.Cfc.mem cfc) ops) in
        if List.length members >= 2 then begin
          let rec ring acc = function
            | a :: (b :: _ as rest) ->
                ring
                  ({ Analysis.Timed_graph.src = a; dst = b; latency = 1; tokens = 0 }
                  :: acc)
                  rest
            | [ last ] ->
                { Analysis.Timed_graph.src = last; dst = List.hd members;
                  latency = 1; tokens = 1 }
                :: acc
            | [] -> acc
          in
          sets := ring (loop_edges g cfc.loop_id) members :: !sets
        end)
      ctx.critical
  in
  let groups = ref (List.map (fun o -> [ o ]) (Crush.Context.candidates ctx)) in
  let continue_ = ref true in
  while !continue_ do
    let arr = Array.of_list !groups in
    let n = Array.length arr in
    let merged = ref None in
    (try
       for i = 0 to n - 1 do
         for j = i + 1 to n - 1 do
           let ops = arr.(i) @ arr.(j) in
           if
             Crush.Groups.check_r1 ctx ops && Crush.Groups.check_r2 ctx ops
             && Crush.Inorder.bb_legal g ~conditional_bbs:c.conditional_bbs ops
           then begin
             incr evaluations;
             record ops;
             if Crush.Inorder.rotation_preserves_ii ctx ops then begin
               let op = Option.get (Crush.Context.opcode_of ctx (List.hd ops)) in
               let credit =
                 List.fold_left
                   (fun m o -> max m (Crush.Context.credits_for ctx o))
                   1 ops
               in
               if
                 Crush.Cost.merge_profitable ~op ~credit
                   ~a:(List.length arr.(i)) ~b:(List.length arr.(j))
               then begin
                 merged :=
                   Some
                     (ops
                     :: (Array.to_list arr
                        |> List.filteri (fun k _ -> k <> i && k <> j)));
                 raise Exit
               end
             end
           end
         done
       done
     with Exit -> ());
    match !merged with
    | Some gs -> groups := gs
    | None -> continue_ := false
  done;
  (List.rev !sets, !evaluations)

let test_cycle_ratio_rotation_rings () =
  let total_sets = ref 0 in
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      let sets, evaluations = rotation_ring_sets (compile b.source) in
      let c = compile b.source in
      let r =
        Crush.Inorder.share c.graph ~critical_loops:c.critical_loops
          ~conditional_bbs:c.conditional_bbs
      in
      checki (b.name ^ ": replayed evaluations") r.evaluations evaluations;
      List.iteri
        (fun k edges -> check_edges (Fmt.str "%s ring set %d" b.name k) edges)
        sets;
      total_sets := !total_sets + List.length sets)
    Kernels.Registry.all;
  checkb "rotation rings checked" (!total_sets > 0)

let edge src dst latency tokens = { Analysis.Timed_graph.src; dst; latency; tokens }

(* Hand-picked corner cases, each named for what it covers. *)
let test_cycle_ratio_corners () =
  List.iter
    (fun (name, edges) -> check_edges name edges)
    [
      ("empty", []);
      ("self-loop", [ edge 3 3 4 1 ]);
      ("token-free self-loop", [ edge 3 3 4 0 ]);
      ("zero-latency token-free ring", [ edge 0 1 0 0; edge 1 0 0 0 ]);
      ("zero-token cycle", [ edge 0 1 2 0; edge 1 0 3 0; edge 1 2 1 1 ]);
      ("duplicate edges", [ edge 0 1 3 1; edge 0 1 3 1; edge 1 0 2 0; edge 1 0 5 1 ]);
      ( "disconnected rings",
        [ edge 0 1 3 1; edge 1 0 2 0; edge 100 101 7 1; edge 101 100 9 1 ] );
      ("acyclic chain", [ edge 0 1 5 0; edge 1 2 5 0; edge 5 6 1 1 ]);
      ("negative ids", [ edge (-7) 12 4 1; edge 12 (-7) 4 2 ]);
    ]

(* Random timed graphs: one or two components (disjoint id ranges), each
   a random edge list over a few nodes — self-loops, parallel duplicates
   and token-free cycles arise often, the empty list too. *)
let gen_timed_graph =
  let open QCheck2.Gen in
  let component base =
    int_range 1 6 >>= fun nodes ->
    list_size (int_range 0 12)
      (map
         (fun (((s, d), l), (t, dup)) ->
           let e = edge (base + s) (base + d) l t in
           if dup then [ e; e ] else [ e ])
         (pair
            (pair (pair (int_bound (nodes - 1)) (int_bound (nodes - 1)))
               (int_range 0 9))
            (pair (frequency [ (3, return 0); (2, int_range 1 2) ]) bool)))
    >|= List.concat
  in
  pair (component 0) (opt (component 1000)) >|= fun (a, b) ->
  a @ Option.value b ~default:[]

let prop_cycle_ratio_random =
  qtest ~count:500 "random timed graphs: cycle ratio = oracle"
    ~print:(fun edges ->
      String.concat "; "
        (List.map
           (fun (e : Analysis.Timed_graph.edge) ->
             Fmt.str "%d->%d l%d t%d" e.src e.dst e.latency e.tokens)
           edges))
    gen_timed_graph
    (fun edges ->
      check_edges "random timed graph" edges;
      true)

(* ------------------------------------------------------------------ *)

let suite =
  kernel_cases @ kernel_chaos_cases
  @ [
      Alcotest.test_case "paper examples" `Quick test_paper_examples;
      Alcotest.test_case "sanitizers silent on clean circuit" `Slow
        test_sanitizer_silence;
      Alcotest.test_case "probe fast path = full probe" `Quick
        test_probe_consistency;
    ]
  @ List.map
      (fun fault ->
        Alcotest.test_case
          (Fmt.str "fault: %s" (Crush.Faults.describe fault))
          `Quick (test_fault fault))
      Crush.Faults.all
  @ [ prop_random_kernels; prop_random_kernels_chaos; prop_random_builder ]
  @ [
      Alcotest.test_case "cycle ratio = oracle: kernel loop CFCs" `Quick
        test_cycle_ratio_kernels;
      Alcotest.test_case "cycle ratio = oracle: In-order rotation rings"
        `Quick test_cycle_ratio_rotation_rings;
      Alcotest.test_case "cycle ratio = oracle: corner cases" `Quick
        test_cycle_ratio_corners;
      prop_cycle_ratio_random;
    ]
