(** Every metric the benchmark reports, with its unit.  BENCHMARK.json
    lists the same names and units (the self-test checks that they
    agree); perfbench/README.md says which end-to-end metric each
    per-layer metric should move, and on which workload. *)

let kernels = List.map (fun (b : Kernels.Registry.bench) -> b.name) Kernels.Registry.all

(** Printed by untraced runs.  Every workload defines each of them:
    an op is a compile flow, a verified simulation or a serve request. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_ms", "ms") ]

let per_kernel prefix unit_ = List.map (fun k -> (prefix ^ k, unit_)) kernels

(** Printed by traced runs.  A layer a workload does not enter reports
    0: it did no work there. *)
let per_layer =
  [
    ("minic.compile_ms", "ms");
    ("minic.units", "count");
    ("crush.share_ms", "ms");
    ("crush.groups", "count");
    ("crush.inorder_ms", "ms");
    ("crush.inorder_evals", "count");
    ("analysis.qor_ms", "ms");
    ("analysis.luts", "count");
    ("analysis.ffs", "count");
    ("analysis.dsps", "count");
    ("sim.image_ms", "ms");
  ]
  @ per_kernel "compile.flow_ms." "ms"
  @ [ ("sim.cycles_per_s", "cycles/s") ]
  @ per_kernel "sim.cycles_per_s." "cycles/s"
  @ [ ("sim.minor_words_per_cycle", "words/cycle") ]
  @ per_kernel "sim.sanitizer_x." "x"
  @ per_kernel "sim.cycles." "cycles"
  @ per_kernel "sim.transfers." "count"
  @ [
      ("kernels.inputs_ms", "ms");
      ("kernels.verify_ms", "ms");
      ("serve.req_p95_ms", "ms");
      ("serve.batch_p50_ms", "ms");
      ("serve.worker_p50_ms", "ms");
      ("serve.cached_p50_ms", "ms");
      ("serve.result_cache_hit_ratio", "ratio");
      ("serve.image_cache_hit_ratio", "ratio");
      ("serve.batch_runs", "count");
      ("serve.spills", "count");
      ("serve.shed", "count");
      ("serve.gen_late_ms", "ms");
      ("serve.refused", "count");
      ("serve.timeouts", "count");
      ("serve.http_429", "count");
      ("exec.worker_respawns", "count");
      ("exec.journal_appends", "count");
      ("host.cal_ms", "ms");
      ("trace.overhead_pct.ops_per_s", "%");
      ("trace.overhead_pct.op_p50_ms", "%");
    ]
