(** Maximum cycle ratio of a timed event graph.

    The initiation interval of a choice-free circuit is the maximum over
    its directed cycles C of latency(C) / tokens(C) (Section 2.1 of the
    paper; this is the analytic counterpart of the MILP throughput model
    of Josipović et al. that Dynamatic solves with Gurobi).  We compute it
    by parametric search: a ratio [lam] is feasible iff no cycle has
    positive weight under edge weights [latency - lam * tokens], tested
    with Bellman–Ford.

    The edge list is flattened once per call into dense arrays over node
    indices, and every probe of the search runs over those arrays.  The
    decision procedure — edge order, relaxation test, round cap, search
    bounds and bisection — is that of the list-based original, so every
    result is bit-identical to it (test/oracle_cycle_ratio.ml). *)

type result =
  | Ratio of float  (** the maximum cycle ratio (the achievable II) *)
  | Unbounded       (** a cycle carries latency but no tokens: deadlock *)
  | Acyclic         (** no cycle in scope: II limited by input rate only *)

module Int_tbl = Hashtbl.Make (Int)

(* Edge [k] runs from node [src.(k)] to node [dst.(k)], nodes numbered
   densely from 0 in order of first appearance.  [weight] and [dist] are
   scratch space, refilled by every probe. *)
type flat = {
  nodes : int;
  src : int array;
  dst : int array;
  latency : float array;
  tokens : float array;
  weight : float array;
  dist : float array;
}

let flatten (edges : Timed_graph.edge list) =
  let m = List.length edges in
  let index = Int_tbl.create 97 in
  let node v =
    match Int_tbl.find_opt index v with
    | Some i -> i
    | None ->
        let i = Int_tbl.length index in
        Int_tbl.add index v i;
        i
  in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let latency = Array.make m 0.0 and tokens = Array.make m 0.0 in
  List.iteri
    (fun k (e : Timed_graph.edge) ->
      let u = node e.src in
      let v = node e.dst in
      src.(k) <- u;
      dst.(k) <- v;
      latency.(k) <- float_of_int e.latency;
      tokens.(k) <- float_of_int e.tokens)
    edges;
  let nodes = Int_tbl.length index in
  {
    nodes;
    src;
    dst;
    latency;
    tokens;
    weight = Array.make m 0.0;
    dist = Array.make nodes 0.0;
  }

(* Bellman–Ford positive-cycle detection on the weights in [f.weight]:
   relax every edge in order, at most [nodes + 1] rounds, and report
   whether the last round still changed a distance.  The unchecked
   accesses are in bounds by construction: [src], [dst] and [weight]
   have one entry per edge, and every node index is below [nodes], the
   length of [dist]. *)
let positive_cycle f =
  let n = f.nodes in
  if n = 0 then false
  else begin
    let src = f.src and dst = f.dst and w = f.weight and dist = f.dist in
    Array.fill dist 0 n 0.0;
    let changed = ref true in
    let round = ref 0 in
    while !changed && !round <= n do
      changed := false;
      for k = 0 to Array.length src - 1 do
        let u = Array.unsafe_get src k and v = Array.unsafe_get dst k in
        let du = Array.unsafe_get dist u +. Array.unsafe_get w k in
        if du > Array.unsafe_get dist v +. 1e-9 then begin
          Array.unsafe_set dist v du;
          changed := true
        end
      done;
      incr round
    done;
    !changed
  end

(* Is some cycle positive under weights [latency - lam * tokens]? *)
let has_positive_cycle f lam =
  for k = 0 to Array.length f.weight - 1 do
    f.weight.(k) <- f.latency.(k) -. (lam *. f.tokens.(k))
  done;
  positive_cycle f

(* A cycle exists iff the graph with all-positive weights has one: every
   edge at latency 1, tokens 0, probed at lam = -1, i.e. weight 1. *)
let flat_has_cycle f =
  Array.fill f.weight 0 (Array.length f.weight) 1.0;
  positive_cycle f

let has_cycle edges = flat_has_cycle (flatten edges)

(** Maximum cycle ratio of [edges], within absolute precision [eps]. *)
let compute ?(eps = 1e-4) (edges : Timed_graph.edge list) =
  let f = flatten edges in
  if not (flat_has_cycle f) then Acyclic
  else begin
    let max_lat =
      List.fold_left (fun m (e : Timed_graph.edge) -> m + max 0 e.latency) 1 edges
    in
    let hi0 = float_of_int max_lat +. 1.0 in
    if has_positive_cycle f hi0 then Unbounded
    else begin
      let lo = ref 0.0 and hi = ref hi0 in
      while !hi -. !lo > eps do
        let mid = 0.5 *. (!lo +. !hi) in
        if has_positive_cycle f mid then lo := mid else hi := mid
      done;
      Ratio !hi
    end
  end

let pp ppf = function
  | Ratio r -> Fmt.pf ppf "II=%.2f" r
  | Unbounded -> Fmt.string ppf "II=inf (token-free cycle)"
  | Acyclic -> Fmt.string ppf "acyclic"
