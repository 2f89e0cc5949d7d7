(** The benchmark's calls into each library, each wrapped in a span
    named after the layer it enters.  Timing happens here, outside the
    program: no library is instrumented. *)

let compile ?(strategy = Minic.Codegen.Bb_ordered) source =
  Spans.with_span "minic.compile" (fun () ->
      Minic.Codegen.compile_source ~strategy source)

let crush (c : Minic.Codegen.compiled) =
  Spans.with_span "crush.share" (fun () ->
      Crush.Share.crush c.graph ~critical_loops:c.critical_loops)

let inorder (c : Minic.Codegen.compiled) =
  Spans.with_span "crush.inorder" (fun () ->
      Crush.Inorder.share c.graph ~critical_loops:c.critical_loops
        ~conditional_bbs:c.conditional_bbs)

(** The quality-of-results step of Tables 2 and 3: area and critical
    path. *)
let qor g =
  Spans.with_span "analysis.qor" (fun () ->
      let area = Analysis.Area.total g in
      (area, Analysis.Timing.critical_path g))

let image g = Spans.with_span "sim.image" (fun () -> Sim.Engine.image g)

(** The circuit every simulating workload runs: BB-organized, shared by
    CRUSH, compiled to an execution image. *)
let crush_image (b : Kernels.Registry.bench) =
  let c = compile b.source in
  ignore (crush c);
  image c.graph

(** Fresh seeded inputs in a memory sized for [image], plus the software
    reference's expected arrays. *)
let inputs (b : Kernels.Registry.bench) image ~seed =
  Spans.with_span "kernels.inputs" (fun () ->
      let inputs = Kernels.Registry.fresh_inputs ~seed b in
      let expected = Kernels.Registry.copy_arrays inputs in
      b.reference expected;
      let memory = Sim.Memory.of_graph (Sim.Engine.image_graph image) in
      Hashtbl.iter (Sim.Memory.set_floats memory) inputs;
      (memory, expected))

(** Generous fuel: the largest kernel completes in under 100k cycles. *)
let max_cycles = 2_000_000

type sim_run = {
  verdict : (Gate.sim_counts, string) result;
  engine_s : float;      (** host seconds inside the engine alone *)
  minor_words : float;   (** words allocated by the engine call *)
}

(** One verified simulation: inputs, engine (with the protocol
    sanitizers when [sanitize]), check against the reference. *)
let simulate ?(sanitize = false) (b : Kernels.Registry.bench) image ~seed =
  let memory, expected = inputs b image ~seed in
  let monitor = if sanitize then Some (Sim.Sanitizer.monitor ()) else None in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let out =
    Spans.with_span
      (if sanitize then "sim.sanitized" else "sim.engine")
      (fun () -> Sim.Engine.run_image ~max_cycles ?monitor ~memory image)
  in
  let engine_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let verdict =
    Spans.with_span "kernels.verify" (fun () -> Gate.check_run b expected out)
  in
  { verdict; engine_s; minor_words }
