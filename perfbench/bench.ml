(* The repository benchmark: one command runs a named workload from a
   seed, checks every output, and prints every metric by name with its
   unit.  The last stdout line is the JSON result:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   with the end-to-end metrics (untraced) or, under --trace 1, the
   per-layer metrics of Metrics.per_layer.  See perfbench/README.md. *)

open Perfbench
module J = Exec.Jsonl

let workload = ref ""
let seed = ref 1
let seconds = ref 20.0
let trace = ref 0
let find_rate = ref ""

(* Paths relative to the repository root, where the benchmark runs. *)
let exe = "_build/default/bin/crush_cli.exe"
let out_dir = ".perfbench"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME compile | sim | sim-checked | serve");
    ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S measured time (default 20)");
    ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ( "--find-rate",
      Arg.Set_string find_rate,
      "R1,R2,.. serve only: latency at each offered rate, --seconds each" );
  ]

let usage = "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"

let print_self_times () =
  let by_layer = Spans.self_by_layer (Spans.spans ()) in
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 by_layer in
  Fmt.pr "self time by layer (traced spans, set-up included):@.";
  List.iter
    (fun (l, v) ->
      Fmt.pr "  %-10s %10.1f ms  %5.1f%%@." l (v *. 1e3)
        (v /. Float.max 1e-12 total *. 100.0))
    by_layer

let write_trace path =
  let oc = open_out path in
  output_string oc (Spans.to_chrome_json (Spans.spans ()));
  close_out oc;
  Fmt.pr "trace: %s (%d spans; open in Perfetto)@." path
    (List.length (Spans.spans ()))

let result_line (r : Report.t) ~trace =
  let names = if trace then Metrics.per_layer else Metrics.end_to_end in
  let metric (name, unit_) =
    let value =
      match Hashtbl.find_opt r.Report.values name with
      | Some v -> v
      | None when trace -> 0.0
      | None -> failwith ("no value for " ^ name)
    in
    (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit_) ])
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (r.failed = 0));
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics", J.Obj (List.map metric names));
       ])

let main () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let r = Report.create () in
  let trace = !trace = 1 in
  let seconds = !seconds and seed = !seed in
  (match !workload with
  | "compile" -> Wl_compile.run r ~seed ~seconds ~trace
  | "sim" -> Wl_sim.run r ~sanitize:false ~seed ~seconds ~trace
  | "sim-checked" -> Wl_sim.run r ~sanitize:true ~seed ~seconds ~trace
  | "serve" when !find_rate <> "" ->
      Wl_serve.find_rate r ~exe ~dir:out_dir ~seed ~seconds
        (List.map float_of_string (String.split_on_char ',' !find_rate))
  | "serve" -> Wl_serve.run r ~exe ~dir:out_dir ~seed ~seconds ~trace
  | w ->
      Fmt.epr "bench: unknown workload %S@.%s@." w usage;
      exit 2);
  Fmt.pr "host calibration: median %.2f ms over %d samples (reference %.0f ms)@."
    (Calib.median_ms ()) (List.length !Calib.samples) (Calib.reference_s *. 1e3);
  Report.set r "host.cal_ms" (Calib.median_ms ());
  if trace then begin
    print_self_times ();
    write_trace
      (Filename.concat out_dir (Fmt.str "trace-%s-seed%d.json" !workload seed))
  end;
  List.iter (Fmt.pr "FAILED: %s@.") (List.rev r.errors);
  if !find_rate = "" then print_endline (result_line r ~trace);
  exit (if r.failed = 0 then 0 else 1)

let () =
  try main () with
  | Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2
  | e ->
      Fmt.epr "bench: %s@." (Printexc.to_string e);
      exit 2
