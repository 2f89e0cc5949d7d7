(** [compile]: the cold paper flow without simulation.  Every kernel
    goes through the five flows of Tables 2 and 3 — frontend, sharing
    pass, area and timing, execution image — in a seeded order. *)

type technique = Naive | Inorder | Crush

type flow = {
  label : string;
  strategy : Minic.Codegen.strategy;
  technique : technique;
}

let flows =
  Minic.Codegen.
    [
      { label = "bb-naive"; strategy = Bb_ordered; technique = Naive };
      { label = "bb-inorder"; strategy = Bb_ordered; technique = Inorder };
      { label = "bb-crush"; strategy = Bb_ordered; technique = Crush };
      { label = "ft-naive"; strategy = Fast_token; technique = Naive };
      { label = "ft-crush"; strategy = Fast_token; technique = Crush };
    ]

(** What a flow produced.  Everything but the image must repeat exactly
    from one pass to the next. *)
type out = {
  units : int;  (** IR size after the frontend *)
  groups : int;
  evals : int;
  area : Analysis.Area.cost;
  cp_ns : float;
  image : Sim.Engine.image;
}

let same a b =
  a.units = b.units && a.groups = b.groups && a.evals = b.evals
  && a.area = b.area && Float.equal a.cp_ns b.cp_ns

let run_flow (b : Kernels.Registry.bench) f =
  Spans.with_span "compile.flow" (fun () ->
      let c = Layers.compile ~strategy:f.strategy b.source in
      let units = Dataflow.Graph.live_unit_count c.graph in
      let groups, evals =
        match f.technique with
        | Naive -> (0, 0)
        | Crush -> (List.length (Layers.crush c).groups, 0)
        | Inorder ->
            let r = Layers.inorder c in
            (List.length r.groups, r.evaluations)
      in
      let area, cp_ns = Layers.qor c.graph in
      { units; groups; evals; area; cp_ns; image = Layers.image c.graph })

let run r ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; 0xc0 |] in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun b -> List.map (fun f -> (b, f)) flows)
         Kernels.Registry.all)
  in
  if trace then Spans.enable ();
  (* Set-up is the warm-up a user's first flows pay: code paging and
     heap growth, one BB-CRUSH flow per kernel. *)
  Report.setup_median r (fun () ->
      List.iter
        (fun b -> ignore (run_flow b (List.nth flows 2)))
        Kernels.Registry.all);
  let first = Hashtbl.create 64 in
  let flow_s = Hashtbl.create 16 in
  let last_images = Hashtbl.create 64 in
  let pass record =
    Stats.shuffle rng tasks;
    Array.iter
      (fun ((b : Kernels.Registry.bench), f) ->
        Report.attempt r;
        let t0 = Report.now () in
        let o = run_flow b f in
        let dt = Report.now () -. t0 in
        let key = (b.name, f.label) in
        let ok =
          match Hashtbl.find_opt first key with
          | None ->
              Hashtbl.replace first key o;
              true
          | Some o1 when same o1 o -> true
          | Some _ ->
              Report.fail r
                (Fmt.str "%s/%s: result differs from the first pass" b.name
                   f.label);
              false
        in
        Hashtbl.replace last_images key (b, o.image);
        if Spans.enabled () then
          Hashtbl.replace flow_s b.name
            (dt :: Option.value ~default:[] (Hashtbl.find_opt flow_s b.name));
        record ~key:(b.name ^ "/" ^ f.label) ~ok dt)
      tasks
  in
  let w = Report.measure r ~seconds ~trace (fun s -> Report.rounds ~seconds:s pass) in
  Fmt.pr "compile: %d flows in %.2f s (%d per pass)@." (Array.length w.lat)
    w.elapsed (Array.length tasks);
  (* The compiled circuits must still be right: simulate one seeded
     sharing flow per kernel and check it against the reference. *)
  let sharing = List.filter (fun f -> f.technique <> Naive) flows in
  List.iter
    (fun (b : Kernels.Registry.bench) ->
      let f = List.nth sharing (Random.State.int rng (List.length sharing)) in
      match Hashtbl.find_opt last_images (b.name, f.label) with
      | None -> ()
      | Some (b, image) ->
          Report.attempt r;
          ignore
            (Report.check r
               (Layers.simulate b image ~seed:42).Layers.verdict))
    Kernels.Registry.all;
  (* Exact counts, per pass over the 55 flows. *)
  let sum f = Hashtbl.fold (fun _ o acc -> acc + f o) first 0 in
  let groups = sum (fun o -> o.groups) and evals = sum (fun o -> o.evals) in
  let luts = sum (fun o -> o.area.Analysis.Area.luts)
  and ffs = sum (fun o -> o.area.Analysis.Area.ffs)
  and dsps = sum (fun o -> o.area.Analysis.Area.dsps)
  and units = sum (fun o -> o.units) in
  Fmt.pr "compile exact counts per pass: minic.units %d, crush.groups %d, \
          crush.inorder_evals %d, analysis luts %d ffs %d dsps %d@."
    units groups evals luts ffs dsps;
  if trace then begin
    let spans = Spans.spans () in
    List.iter
      (fun (m, span) -> Report.set r m (Report.mean_ms spans span))
      [
        ("minic.compile_ms", "minic.compile");
        ("crush.share_ms", "crush.share");
        ("crush.inorder_ms", "crush.inorder");
        ("analysis.qor_ms", "analysis.qor");
        ("sim.image_ms", "sim.image");
      ];
    List.iter
      (fun (m, v) -> Report.set r m (float_of_int v))
      [
        ("minic.units", units);
        ("crush.groups", groups);
        ("crush.inorder_evals", evals);
        ("analysis.luts", luts);
        ("analysis.ffs", ffs);
        ("analysis.dsps", dsps);
      ];
    Hashtbl.iter
      (fun k ts ->
        Report.set r ("compile.flow_ms." ^ k)
          (Stats.mean (Array.of_list ts) *. 1e3))
      flow_s
  end
