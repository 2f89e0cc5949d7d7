(** The In-order baseline: total-token-order sharing [33] (Section 3).

    Accesses to a shared unit follow the program's basic-block order:
    within one loop, operations take strict per-iteration turns; across
    sequential loop nests the earlier nest's accesses come first (modelled
    by the [Phased] arbiter policy).  This avoids deadlock without
    credits, but is conservative in two ways the paper quantifies:

    - performance: a rotation between data-dependent operations inserts
      the whole unit latency into the dependency cycle (Figure 2: II 4
      instead of 2), so fewer groups are legal — the optimizer must
      re-evaluate the circuit's performance model for every candidate
      merge, which is its optimization-time cost vs CRUSH (~10x in the
      paper, ~4x against this repository's analytic model);
    - opportunity: operations under divergent control flow cannot be
      ordered by BB sequence at all (absent tokens would stall the
      rotation), so the irregular kernels (gsum/gsumif) share little.

    For deadlock safety our implementation retains the credit/output
    buffer skeleton of the CRUSH wrapper (a strictly fair concession to
    the baseline); its defining total-order arbitration and its
    repeated-analysis optimizer are faithful to [33]. *)

open Dataflow

type report = {
  groups : Share.shared_group list;
  singles : int;
  opt_time_s : float;
  evaluations : int;  (** performance-model evaluations performed *)
}

(* Rotation order within a cluster: program order = (bb, uid). *)
let program_order g ops =
  List.sort
    (fun a b -> compare (Graph.bb_of g a, a) (Graph.bb_of g b, b))
    ops

(* Partition a group into per-loop clusters, in program order. *)
let clusters_of g ops =
  let tbl = Hashtbl.create 7 in
  List.iter
    (fun o ->
      let l = Graph.loop_of g o in
      Hashtbl.replace tbl l (o :: Option.value (Hashtbl.find_opt tbl l) ~default:[]))
    ops;
  Hashtbl.fold (fun _ members acc -> program_order g members :: acc) tbl []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

(* BB-order legality: a group is orderable iff no member sits under
   divergent control flow — unless all members share one BB (then their
   tokens arrive together and a local order exists). *)
let bb_legal g ~conditional_bbs ops =
  let bbs = List.map (Graph.bb_of g) ops in
  match bbs with
  | [] -> true
  | b0 :: rest ->
      if List.exists (( = ) (-1)) bbs then false (* no BB organization *)
      else if List.for_all (( = ) b0) rest then true
      else List.for_all (fun b -> not (List.mem b conditional_bbs)) bbs

(* The expensive check: recompute every critical CFC's cycle ratio with
   the rotation ring added, and require the II to be preserved. *)
let rotation_preserves_ii ctx ops =
  let g = ctx.Context.graph in
  List.for_all
    (fun (cfc : Analysis.Cfc.t) ->
      let base = Analysis.Cfc.ii_value cfc in
      let members =
        program_order g (List.filter (fun o -> Analysis.Cfc.mem cfc o) ops)
      in
      if List.length members < 2 then true
      else begin
        let scope = Hashtbl.create 97 in
        List.iter (fun u -> Hashtbl.replace scope u ()) cfc.units;
        let edges = Analysis.Timed_graph.edges g ~in_scope:(Hashtbl.mem scope) in
        (* Rotation ring: each member hands the turn to the next after
           occupying the first pipeline stage (1 cycle); one turn token
           circulates. *)
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
        let edges = ring edges members in
        (* Both IIs come from a binary search with absolute precision
           ~1e-4; a real rotation penalty is at least a fraction of a
           cycle, so compare with a tolerance well above the search
           noise and well below any genuine penalty. *)
        match (Analysis.Cycle_ratio.compute edges, base) with
        | Analysis.Cycle_ratio.Ratio r, Some b -> r <= b +. 0.1
        | Analysis.Cycle_ratio.Ratio _, None -> false
        | Analysis.Cycle_ratio.Acyclic, _ -> true
        | Analysis.Cycle_ratio.Unbounded, _ -> false
      end)
    ctx.Context.critical

(** Apply In-order sharing to [graph] in place. *)
let share ?shareable graph ~critical_loops ~conditional_bbs =
  let t0 = Unix.gettimeofday () in
  let evaluations = ref 0 in
  let ctx = Context.make graph ~critical_loops in
  let candidates = Context.candidates ?shareable ctx in
  let groups = ref (List.map (fun o -> [ o ]) candidates) in
  let continue_ = ref true in
  while !continue_ do
    let arr = Array.of_list !groups in
    let n = Array.length arr in
    let merged = ref None in
    (try
       for i = 0 to n - 1 do
         for j = i + 1 to n - 1 do
           let g = arr.(i) @ arr.(j) in
           if
             Groups.check_r1 ctx g && Groups.check_r2 ctx g
             && bb_legal graph ~conditional_bbs g
           then begin
             incr evaluations;
             if rotation_preserves_ii ctx g then begin
               let op = Option.get (Context.opcode_of ctx (List.hd g)) in
               let credit =
                 List.fold_left (fun m o -> max m (Context.credits_for ctx o)) 1 g
               in
               if
                 Cost.merge_profitable ~op ~credit ~a:(List.length arr.(i))
                   ~b:(List.length arr.(j))
               then begin
                 merged :=
                   Some
                     (g
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
  let to_share = List.filter (fun g -> List.length g >= 2) !groups in
  let shared =
    List.map
      (fun ops ->
        let clusters = clusters_of graph ops in
        let members = List.concat clusters in
        let credits = List.map (Context.credits_for ctx) members in
        let index_of o =
          let rec find i = function
            | [] -> assert false
            | x :: _ when x = o -> i
            | _ :: rest -> find (i + 1) rest
          in
          find 0 members
        in
        let policy =
          Types.Phased (List.map (List.map index_of) clusters)
        in
        let op = Option.get (Context.opcode_of ctx (List.hd members)) in
        let shared_unit =
          Wrapper.apply graph { Wrapper.ops = members; credits; policy; ob_slots = None }
        in
        { Share.op; members; credits; shared_unit })
      to_share
  in
  Validate.check_exn graph;
  {
    groups = shared;
    singles = List.length !groups - List.length to_share;
    opt_time_s = Unix.gettimeofday () -. t0;
    evaluations = !evaluations;
  }
