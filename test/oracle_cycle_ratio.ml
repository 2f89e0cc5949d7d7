(* Frozen list-based cycle-ratio analysis, kept verbatim as the
   differential-testing oracle for the flat-array rewrite in
   lib/analysis/cycle_ratio.ml.  Do not optimize or refactor this file:
   its value is that it is the exact implementation the rewrite must be
   bit-identical to (every [Ratio r] float-equal, every [has_cycle]
   answer the same).  Apart from this header and the module alias
   below, it is the unmodified lib/analysis/cycle_ratio.ml as of the
   rewrite. *)

module Timed_graph = Analysis.Timed_graph

(** Maximum cycle ratio of a timed event graph.

    The initiation interval of a choice-free circuit is the maximum over
    its directed cycles C of latency(C) / tokens(C) (Section 2.1 of the
    paper; this is the analytic counterpart of the MILP throughput model
    of Josipović et al. that Dynamatic solves with Gurobi).  We compute it
    by parametric search: a ratio [lam] is feasible iff no cycle has
    positive weight under edge weights [latency - lam * tokens], tested
    with Bellman–Ford. *)

type result =
  | Ratio of float  (** the maximum cycle ratio (the achievable II) *)
  | Unbounded       (** a cycle carries latency but no tokens: deadlock *)
  | Acyclic         (** no cycle in scope: II limited by input rate only *)

let nodes_of_edges (edges : Timed_graph.edge list) =
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun (e : Timed_graph.edge) ->
      Hashtbl.replace tbl e.src ();
      Hashtbl.replace tbl e.dst ())
    edges;
  Hashtbl.fold (fun n () acc -> n :: acc) tbl []

(* Bellman-Ford positive-cycle detection on weights lat - lam*tok. *)
let has_positive_cycle edges nodes lam =
  let idx = Hashtbl.create 97 in
  List.iteri (fun i n -> Hashtbl.replace idx n i) nodes;
  let n = List.length nodes in
  if n = 0 then false
  else begin
    let dist = Array.make n 0.0 in
    let changed = ref true in
    let round = ref 0 in
    while !changed && !round <= n do
      changed := false;
      List.iter
        (fun (e : Timed_graph.edge) ->
          let u = Hashtbl.find idx e.src and v = Hashtbl.find idx e.dst in
          let w = float_of_int e.latency -. (lam *. float_of_int e.tokens) in
          if dist.(u) +. w > dist.(v) +. 1e-9 then begin
            dist.(v) <- dist.(u) +. w;
            changed := true
          end)
        edges;
      incr round
    done;
    !changed
  end

let has_cycle edges =
  (* A cycle exists iff the graph with all-positive weights has one. *)
  let nodes = nodes_of_edges edges in
  let e1 =
    List.map (fun (e : Timed_graph.edge) -> { e with latency = 1; tokens = 0 }) edges
  in
  has_positive_cycle e1 nodes (-1.0)

(** Maximum cycle ratio of [edges], within absolute precision [eps]. *)
let compute ?(eps = 1e-4) (edges : Timed_graph.edge list) =
  let nodes = nodes_of_edges edges in
  if not (has_cycle edges) then Acyclic
  else begin
    let max_lat =
      List.fold_left (fun m (e : Timed_graph.edge) -> m + max 0 e.latency) 1 edges
    in
    let hi0 = float_of_int max_lat +. 1.0 in
    if has_positive_cycle edges nodes hi0 then Unbounded
    else begin
      let lo = ref 0.0 and hi = ref hi0 in
      while !hi -. !lo > eps do
        let mid = 0.5 *. (!lo +. !hi) in
        if has_positive_cycle edges nodes mid then lo := mid else hi := mid
      done;
      Ratio !hi
    end
  end

let pp ppf = function
  | Ratio r -> Fmt.pf ppf "II=%.2f" r
  | Unbounded -> Fmt.string ppf "II=inf (token-free cycle)"
  | Acyclic -> Fmt.string ppf "acyclic"
