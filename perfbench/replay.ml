(* In-process replays of layer calls the program makes internally, timed
   from outside in the traced run only. *)

module Flow = Soc_core.Flow
module Farm = Soc_farm.Farm

(* [Farm.build_batch] with a benchmark-supplied farm trace whose job spans
   become children of the [farm.build_batch] span. *)
let build_batch sp ctx ?jobs ?hls_config ?fifo_depth ~cache entries =
  Spans.opt sp ctx "farm.build_batch" (fun c ->
      match sp with
      | None -> Farm.build_batch ?jobs ?hls_config ?fifo_depth ~cache entries
      | Some t ->
        let ft = Soc_farm.Trace.create () in
        let epoch = Unix.gettimeofday () -. Soc_farm.Trace.now ft in
        let report = Farm.build_batch ?jobs ?hls_config ?fifo_depth ~cache ~trace:ft entries in
        Spans.add_farm t c ~epoch ft;
        report)

(* The staged [Flow] functions every build runs, cached or not, replayed on
   a finished build. *)
let flow t ctx ~fifo_depth (b : Flow.build) =
  let span name f = ignore (Spans.span t ctx name (fun _ -> f ())) in
  span "flow.lint" (fun () -> Flow.lint_impls b.Flow.impls);
  let integration = Spans.span t ctx "flow.integrate" (fun _ -> Flow.integrate b.Flow.spec) in
  span "flow.aggregate" (fun () -> Flow.aggregate_resources b.Flow.spec ~fifo_depth b.Flow.impls);
  span "flow.swgen" (fun () -> Flow.generate_software b.Flow.spec integration);
  span "flow.estimate" (fun () ->
      Flow.estimate_tools b.Flow.spec ~dsl_source:b.Flow.dsl_source
        (List.map (fun i -> (i, `Synthesized)) b.Flow.impls)
        integration ~resources:b.Flow.resources)

(* The per-layer metrics every traced workload derives from its spans. *)
let layer_metrics t ~ops =
  let tbl = Spans.self_by_name t in
  let us = Common.self_per_op tbl ~ops ~scale:1e6 in
  [ ("parser.parse_us", us "parser.parse");
    ("analyze.run_us", us "analyze.run");
    ("jobgraph.plan_us", us "jobgraph.plan");
    ("hls.synth_us", us "hls.synth");
    ("flow.lint_us", us "flow.lint");
    ("flow.integrate_us", us "flow.integrate");
    ("flow.aggregate_us", us "flow.aggregate");
    ("flow.swgen_us", us "flow.swgen");
    ("flow.estimate_us", us "flow.estimate");
    ("farm.phase_self_us.hls", us "farm.hls");
    ("farm.phase_self_us.integrate", us "farm.integrate");
    ("farm.phase_self_us.synthesis", us "farm.synthesis");
    ("farm.phase_self_us.swgen", us "farm.swgen");
    ("farm.phase_self_us.finalize", us "farm.finalize");
    ("farm.overhead_us", us "farm.build_batch");
    ("farm.manifest_us", us "farm.manifest_json");
    ("protocol.encode_us", us "protocol.encode");
    ("protocol.decode_us", us "protocol.decode");
    ("trace.spans_per_op", Common.ratio (List.length (Spans.spans t)) ops) ]

(* Kernel-synthesis requests of a plan, before content-hash dedup. *)
let kernel_requests (plan : Soc_farm.Jobgraph.t) =
  Array.fold_left (fun acc l -> acc + List.length l) 0 plan.Soc_farm.Jobgraph.kernel_jobs
