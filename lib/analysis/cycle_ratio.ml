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
    result is bit-identical to it (test/oracle_cycle_ratio.ml).  A probe
    that can only answer "true" may answer early, on a witness cycle
    whose weight no change-free round could allow (see [margin]). *)

type result =
  | Ratio of float  (** the maximum cycle ratio (the achievable II) *)
  | Unbounded       (** a cycle carries latency but no tokens: deadlock *)
  | Acyclic         (** no cycle in scope: II limited by input rate only *)

module Int_tbl = Hashtbl.Make (Int)

(* Edge [k] runs from node [src.(k)] to node [dst.(k)], nodes numbered
   densely from 0 in order of first appearance.  [weight], [dist] and
   [parent] (the edge that last improved each node, -1 for none) are
   scratch space, refilled by every probe; [mark] holds the stamps of
   parent-graph walks, below [stamp] once a walk is over.  [witness] is
   the last cycle that certified a probe, as edge indices.  [slack] and
   [spread] give the certifying margin of a cycle (see [margin]). *)
type flat = {
  nodes : int;
  src : int array;
  dst : int array;
  latency : float array;
  tokens : float array;
  hi0 : float;
  weight : float array;
  dist : float array;
  parent : int array;
  mark : int array;
  mutable stamp : int;
  mutable witness : int array;
  slack : float;
  spread : float;
}

(* Relaxation tolerance of the test [dist(u) + w > dist(v) + tol]. *)
let tol = 1e-9

(* The unit roundoff of a double, 2^-53. *)
let roundoff = epsilon_float /. 2.0

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
  let max_lat =
    List.fold_left (fun m (e : Timed_graph.edge) -> m + max 0 e.latency) 1 edges
  in
  let hi0 = float_of_int max_lat +. 1.0 in
  (* Every probe weighs edge [k] at 1 (the cycle test) or at
     [latency - lam * tokens] with [lam] in [0, hi0]; being linear in
     [lam], that weight is bounded by its values at the two ends.  So
     [pos] bounds the sum of positive weights of any probe, and [wmax]
     the magnitude of any one weight. *)
  let pos = ref 0.0 and wmax = ref 1.0 in
  for k = 0 to m - 1 do
    let at_hi = latency.(k) -. (hi0 *. tokens.(k)) in
    pos := !pos +. Float.max 1.0 (Float.max latency.(k) at_hi);
    wmax := Float.max !wmax (Float.max (Float.abs latency.(k)) (Float.abs at_hi))
  done;
  (* Distances start at 0 and a round adds at most [pos] to the largest,
     so no probe's distances exceed [reach]. *)
  let reach = float_of_int (nodes + 2) *. !pos in
  {
    nodes;
    src;
    dst;
    latency;
    tokens;
    hi0;
    weight = Array.make m 0.0;
    dist = Array.make nodes 0.0;
    parent = Array.make nodes (-1);
    mark = Array.make nodes (-1);
    stamp = 0;
    witness = [||];
    slack = tol +. (4.0 *. roundoff *. (reach +. 1.0));
    spread = 4.0 *. roundoff *. !wmax;
  }

(* The weight a cycle of [len] edges must exceed to certify a probe.

   Suppose some round of a probe changes no distance.  Then every edge
   [u -> v] of a cycle C passes that round with
   [fl(dist(u) + w) <= fl(dist(v) + tol)], and summing over C, where the
   distances cancel, gives W(C) <= len * tol plus the rounding of those
   additions — at most roundoff * (2 * reach + |w| + tol) per edge — and
   the computed sum of C's weights is off from W(C) by at most about
   roundoff * len * len * wmax.  [margin len] exceeds all of it.  A
   cycle whose computed weight clears the margin therefore forbids any
   change-free round: every one of the [nodes + 1] rounds changes a
   distance and the probe answers "true". *)
let margin f len =
  let l = float_of_int len in
  l *. (f.slack +. (l *. f.spread))

(* Walk the parent graph (each node points to the source of the edge
   that last improved it) for a cycle whose weight under [f.weight]
   clears its margin; keep the first one found in [f.witness].  Every
   node is visited once: a walk stops at a node without a parent or at
   one an earlier walk stamped. *)
let find_witness f =
  let base = f.stamp in
  let found = ref false and s = ref 0 in
  while (not !found) && !s < f.nodes do
    if f.mark.(!s) < base then begin
      let stamp = f.stamp in
      f.stamp <- stamp + 1;
      let v = ref !s in
      while !v >= 0 && f.mark.(!v) < base do
        f.mark.(!v) <- stamp;
        let e = f.parent.(!v) in
        v := if e < 0 then -1 else f.src.(e)
      done;
      if !v >= 0 && f.mark.(!v) = stamp then begin
        let start = !v in
        let cycle = ref [] and w = ref 0.0 and len = ref 0 in
        let x = ref start in
        let more = ref true in
        while !more do
          let e = f.parent.(!x) in
          cycle := e :: !cycle;
          w := !w +. f.weight.(e);
          incr len;
          x := f.src.(e);
          more := !x <> start
        done;
        if !w > margin f !len then begin
          f.witness <- Array.of_list !cycle;
          found := true
        end
      end
    end;
    incr s
  done;
  !found

(* Rounds between two parent-graph walks. *)
let walk_every = 8

(* Bellman–Ford positive-cycle detection on the weights in [f.weight]:
   relax every edge in order, at most [nodes + 1] rounds, and report
   whether the last round still changed a distance — or stop at once,
   answering the same, when a walk of the parent graph finds a
   certifying cycle.  The unchecked accesses are in bounds by
   construction: [src], [dst] and [weight] have one entry per edge, and
   every node index is below [nodes], the length of [dist] and
   [parent]. *)
let positive_cycle f =
  let n = f.nodes in
  if n = 0 then false
  else begin
    let src = f.src and dst = f.dst and w = f.weight and dist = f.dist in
    let parent = f.parent in
    Array.fill dist 0 n 0.0;
    Array.fill parent 0 n (-1);
    let changed = ref true and certified = ref false in
    let round = ref 0 in
    while !changed && (not !certified) && !round <= n do
      changed := false;
      for k = 0 to Array.length src - 1 do
        let u = Array.unsafe_get src k and v = Array.unsafe_get dst k in
        let du = Array.unsafe_get dist u +. Array.unsafe_get w k in
        if du > Array.unsafe_get dist v +. tol then begin
          Array.unsafe_set dist v du;
          Array.unsafe_set parent v k;
          changed := true
        end
      done;
      incr round;
      if !changed && !round mod walk_every = 0 then certified := find_witness f
    done;
    !changed
  end

(* Weight of edge [k] in the probe at ratio [lam]. *)
let weight_at f lam k = f.latency.(k) -. (lam *. f.tokens.(k))

(* Does the last witness, its edges weighed as the probe at [lam] weighs
   them, clear its margin?  Then that probe answers "true". *)
let witness_certifies f lam =
  let c = f.witness in
  let w = ref 0.0 in
  Array.iter (fun k -> w := !w +. weight_at f lam k) c;
  Array.length c > 0 && !w > margin f (Array.length c)

(* Is some cycle positive under weights [latency - lam * tokens]? *)
let has_positive_cycle f lam =
  witness_certifies f lam
  || begin
       for k = 0 to Array.length f.weight - 1 do
         f.weight.(k) <- weight_at f lam k
       done;
       positive_cycle f
     end

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
  else if has_positive_cycle f f.hi0 then Unbounded
  else begin
    let lo = ref 0.0 and hi = ref f.hi0 in
    while !hi -. !lo > eps do
      let mid = 0.5 *. (!lo +. !hi) in
      if has_positive_cycle f mid then lo := mid else hi := mid
    done;
    Ratio !hi
  end

let pp ppf = function
  | Ratio r -> Fmt.pf ppf "II=%.2f" r
  | Unbounded -> Fmt.string ppf "II=inf (token-free cycle)"
  | Acyclic -> Fmt.string ppf "acyclic"
