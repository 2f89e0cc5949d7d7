(** Maximum cycle ratio of a timed event graph — the initiation interval
    of a choice-free circuit is the maximum over its directed cycles of
    latency / tokens (paper Section 2.1; the analytic counterpart of the
    MILP throughput model).  Computed by parametric search with
    Bellman–Ford positive-cycle detection.

    Each call flattens the edge list once into dense arrays — source and
    destination node indices, latencies and token counts as floats — and
    runs every probe of the search over them, reusing one distance
    array.  Edges are relaxed in list order with the test
    [dist(u) + w > dist(v) + 1e-9] for at most [n + 1] rounds; results
    are pinned bit for bit to the list-based original kept as the test
    oracle ([test/oracle_cycle_ratio.ml]). *)

type result =
  | Ratio of float  (** the maximum cycle ratio (the achievable II) *)
  | Unbounded       (** a cycle carries latency but no tokens: deadlock *)
  | Acyclic         (** no cycle in scope *)

(** Does the edge set contain any directed cycle? *)
val has_cycle : Timed_graph.edge list -> bool

(** Maximum cycle ratio within absolute precision [eps] (default 1e-4). *)
val compute : ?eps:float -> Timed_graph.edge list -> result

val pp : result Fmt.t
