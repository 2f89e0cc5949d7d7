(** [sim] and [sim-checked]: repeated verified simulations over
    execution images of the 11 CRUSH-shared BB kernels, precompiled in
    set-up.  [sim-checked] attaches the protocol sanitizers to every
    run, the path [--sanitize] users take. *)

(** Input seeds per kernel, drawn from the workload seed. *)
let seeds_per_kernel = 3

let draw_seeds ~seed =
  let rng = Random.State.make [| seed; 0x51 |] in
  List.map
    (fun (b : Kernels.Registry.bench) ->
      (b.name, Array.init seeds_per_kernel (fun _ -> 1 + Random.State.int rng 999_999)))
    Kernels.Registry.all

(** Exact counts of every (kernel, input seed) simulated, checked for
    bit-identical repeats. *)
type ledger = (string * int, Gate.sim_counts) Hashtbl.t

let record_counts r (ledger : ledger) (b : Kernels.Registry.bench) ~seed counts =
  match Hashtbl.find_opt ledger (b.name, seed) with
  | None ->
      Hashtbl.replace ledger (b.name, seed) counts;
      true
  | Some c when c = counts -> true
  | Some c ->
      Report.fail r
        (Fmt.str "%s seed %d: %d cycles / %d transfers, earlier run %d / %d"
           b.name seed counts.Gate.cycles counts.transfers c.Gate.cycles
           c.transfers);
      false

(** Simulate, gate and ledger one (kernel, seed). *)
let verified r ledger ~sanitize (b, image) ~seed =
  Report.attempt r;
  let run = Layers.simulate ~sanitize b image ~seed in
  let ok =
    match Report.check r run.Layers.verdict with
    | Some counts -> record_counts r ledger b ~seed counts
    | None -> false
  in
  (run, ok)

(** Per-kernel sums of the ledger: the [sim.cycles.<kernel>] and
    [sim.transfers.<kernel>] counts. *)
let kernel_totals (ledger : ledger) =
  let sum k =
    Hashtbl.fold
      (fun (k', _) (c : Gate.sim_counts) (cy, tr) ->
        if k' = k then (cy + c.cycles, tr + c.transfers) else (cy, tr))
      ledger (0, 0)
  in
  List.map (fun k -> (k, sum k)) Metrics.kernels

let print_totals totals =
  List.iter
    (fun (k, (cy, tr)) ->
      Fmt.pr "  sim.cycles.%s %d  sim.transfers.%s %d@." k cy k tr)
    totals;
  Fmt.pr "  total simulated cycles %d@."
    (List.fold_left (fun acc (_, (cy, _)) -> acc + cy) 0 totals)

let compile_images () =
  List.map (fun b -> (b, Layers.crush_image b)) Kernels.Registry.all

(** Reproduce a fixed seed list (e.g. the smoke set's 42 and 43) and
    print its exact counts. *)
let fixed_seeds r seeds =
  let images = compile_images () in
  let ledger = Hashtbl.create 64 in
  List.iter
    (fun seed ->
      List.iter
        (fun bi -> ignore (verified r ledger ~sanitize:false bi ~seed))
        images)
    seeds;
  let totals = kernel_totals ledger in
  print_totals totals;
  totals

let run r ~sanitize ~seed ~seconds ~trace =
  let seeds = draw_seeds ~seed in
  if trace then Spans.enable ();
  let images = Report.setup_median r compile_images in
  let ledger : ledger = Hashtbl.create 64 in
  let round_no = ref 0 in
  (* Traced-window engine cost per kernel: cycles, engine seconds. *)
  let engine = Hashtbl.create 16 in
  let words = ref 0.0 and cycles = ref 0 in
  let round record =
    let i = !round_no mod seeds_per_kernel in
    incr round_no;
    List.iter
      (fun ((b : Kernels.Registry.bench), image) ->
        let seed = (List.assoc b.name seeds).(i) in
        let t0 = Report.now () in
        let run, ok = verified r ledger ~sanitize (b, image) ~seed in
        record ~key:b.name ~ok (Report.now () -. t0);
        match run.Layers.verdict with
        | Ok c when Spans.enabled () ->
            let cy, s =
              Option.value ~default:(0, 0.0) (Hashtbl.find_opt engine b.name)
            in
            Hashtbl.replace engine b.name (cy + c.cycles, s +. run.engine_s);
            words := !words +. run.minor_words;
            cycles := !cycles + c.cycles
        | _ -> ())
      images
  in
  let w =
    Report.measure r ~seconds ~trace (fun s -> Report.rounds ~seconds:s round)
  in
  Fmt.pr "%s: %d simulations in %.2f s@."
    (if sanitize then "sim-checked" else "sim")
    (Array.length w.lat) w.elapsed;
  (* Complete the ledger for seeds the window did not reach, so the
     exact counts always cover every drawn (kernel, seed). *)
  List.iter
    (fun ((b : Kernels.Registry.bench), image) ->
      Array.iter
        (fun seed ->
          if not (Hashtbl.mem ledger (b.name, seed)) then
            ignore (verified r ledger ~sanitize (b, image) ~seed))
        (List.assoc b.name seeds))
    images;
  let totals = kernel_totals ledger in
  print_totals totals;
  if trace then begin
    let spans = Spans.spans () in
    List.iter
      (fun (k, (cy, tr)) ->
        Report.set r ("sim.cycles." ^ k) (float_of_int cy);
        Report.set r ("sim.transfers." ^ k) (float_of_int tr))
      totals;
    let total_s = ref 0.0 in
    Hashtbl.iter
      (fun k (cy, s) ->
        total_s := !total_s +. s;
        Report.set r ("sim.cycles_per_s." ^ k) (float_of_int cy /. s))
      engine;
    Report.set r "sim.cycles_per_s" (float_of_int !cycles /. !total_s);
    Report.set r "sim.minor_words_per_cycle" (!words /. float_of_int !cycles);
    Report.set r "kernels.inputs_ms" (Report.mean_ms spans "kernels.inputs");
    Report.set r "kernels.verify_ms" (Report.mean_ms spans "kernels.verify");
    List.iter
      (fun (m, span) -> Report.set r m (Report.mean_ms spans span))
      [
        ("minic.compile_ms", "minic.compile");
        ("crush.share_ms", "crush.share");
        ("sim.image_ms", "sim.image");
      ];
    (* Sanitizer cost on the same image and seed, plain run first;
       untraced, outside the measured window. *)
    List.iter
      (fun ((b : Kernels.Registry.bench), image) ->
        let seed = (List.assoc b.name seeds).(0) in
        let plain, _ = verified r ledger ~sanitize:false (b, image) ~seed in
        let checked, _ = verified r ledger ~sanitize:true (b, image) ~seed in
        Report.set r ("sim.sanitizer_x." ^ b.name)
          (checked.engine_s /. plain.engine_s))
      images
  end
