(** Maximum cycle ratio of a timed event graph — the initiation interval
    of a choice-free circuit is the maximum over its directed cycles of
    latency / tokens (paper Section 2.1; the analytic counterpart of the
    MILP throughput model).  Computed by parametric search with
    Bellman–Ford positive-cycle detection.

    Each call flattens the edge list once into dense arrays — source and
    destination node indices, latencies and token counts as floats — and
    runs every probe of the search over them, reusing one distance
    array.  Edges are relaxed in list order with the test
    [dist(u) + w > dist(v) + 1e-9] for at most [n + 1] rounds, and a
    probe answers "true" (a positive cycle) iff every round changed a
    distance.

    {b Witness cycles.}  While relaxing, each node records the edge that
    last improved it; every few rounds the probe walks that parent graph.
    A cycle C found there whose weight W(C) exceeds [len(C) * margin]
    ends the probe with "true" at once.  [margin] is the 1e-9 tolerance
    plus a bound on the float rounding of the relaxation tests, derived
    once per call from the edge data.  This answer is exact: if any
    round changed no distance, every edge [u -> v] of C would pass it
    with [dist(u) + w <= dist(v) + 1e-9], and summing around C, where
    the distances cancel, bounds W(C) by [len(C) * margin], which C
    exceeds; so every round changes and the full search also answers
    "true".  The last witness is kept across the probes of one call:
    before each probe at ratio [lam], its edges are re-weighed
    [latency - lam * tokens], exactly as the probe would weigh them, and
    if they clear the same bound the probe answers "true" without
    relaxing anything.  Probes that answer "false" run every round they
    ran before, so results are pinned bit for bit to the list-based
    original kept as the test oracle ([test/oracle_cycle_ratio.ml]).

    {b Zero-latency token-free cycles.}  A cycle whose latency and tokens
    are both 0 (a combinational loop) counts as ratio 0: it is a cycle,
    so the result is never [Acyclic], and it carries no latency, so it
    never makes the result [Unbounded].  When it is the only cycle,
    [compute] returns [Ratio r] with [0 < r <= eps], the search's upper
    end once it has closed on 0. *)

type result =
  | Ratio of float  (** the maximum cycle ratio (the achievable II) *)
  | Unbounded       (** a cycle carries latency but no tokens: deadlock *)
  | Acyclic         (** no cycle in scope *)

(** Does the edge set contain any directed cycle? *)
val has_cycle : Timed_graph.edge list -> bool

(** Maximum cycle ratio within absolute precision [eps] (default 1e-4). *)
val compute : ?eps:float -> Timed_graph.edge list -> result

val pp : result Fmt.t
