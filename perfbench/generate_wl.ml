(* generate_cold: in-process batches of four candidate designs that share one
   HLS configuration and FIFO depth, built on a fresh cache every op, so
   HLS, job-graph dedup and the flow stages dominate — no wire, no
   co-simulation. *)

module Farm = Soc_farm.Farm
module Cache = Soc_farm.Cache
module Jobgraph = Soc_farm.Jobgraph
module Partition = Soc_dse.Partition
module Tuner = Soc_dse.Tuner

let batch = 4
let jobs = 2
let setups = 7
let warmup_ops = 32
let heap_ops_per_s = 60.0
let sizes = [| 16; 32; 48 |]

(* The tuner's candidates that put at least one stage in hardware. *)
let hw_candidates =
  (Tuner.space ()).Soc_tune.Search.universe ()
  |> List.filter (fun c -> not (Partition.is_all_sw c.Tuner.part))

type input = {
  hls_config : Soc_hls.Engine.config;
  fifo_depth : int;
  designs : (Soc_core.Spec.t * (string * Soc_kernel.Ast.kernel) list) list;
}

let kernel_memo = Hashtbl.create 64

let kernels_of part size =
  let k = (Partition.signature part, size) in
  match Hashtbl.find_opt kernel_memo k with
  | Some ks -> ks
  | None ->
    let ks = Partition.kernels_of part ~width:size ~height:size in
    Hashtbl.add kernel_memo k ks;
    ks

let shuffle st a =
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done

(* Op [i] of stream [stream]: an image size and four candidates with
   distinct partitions from the group [Eval] batches one drawn candidate
   in, i.e. the same HLS configuration and effective FIFO depth (the
   depth [Tuner.prepare] derives). *)
let input ~seed ~stream i =
  let st = Random.State.make [| seed; stream; i |] in
  let size = sizes.(Random.State.int st 3) in
  let c0 = List.nth hw_candidates (Random.State.int st (List.length hw_candidates)) in
  let depth c = max c.Tuner.fifo ((size * size) + 16) in
  let hls_config = Tuner.config_of c0 and fifo_depth = depth c0 in
  let parts =
    List.filter_map
      (fun c -> if Tuner.config_of c = hls_config && depth c = fifo_depth then Some c.Tuner.part else None)
      hw_candidates
    |> List.sort_uniq (fun a b -> compare (Partition.signature a) (Partition.signature b))
    |> Array.of_list
  in
  shuffle st parts;
  let parts = List.init batch (fun k -> parts.(k)) in
  { hls_config; fifo_depth; designs = List.map (fun p -> (Partition.spec_of p, kernels_of p size)) parts }

type outcome = {
  manifest : string;
  engine_runs : int;
  lookups : int;
  hits : int;
  kernel_requests : int;
  distinct : int;
}

(* One op: print, parse and gate every design, build the batch on a fresh
   cache, render the manifest. With [sp], every call is a span and the
   flow stages and HLS are replayed on the result. *)
let op ?sp i (inp : input) =
  let ctx = Spans.root i in
  let hls_config = inp.hls_config and fifo_depth = inp.fifo_depth in
  let entries =
    List.map
      (fun (spec, kernels) ->
        let src = Spans.opt sp ctx "printer.to_source" (fun _ -> Soc_core.Printer.to_source spec) in
        let spec = Spans.opt sp ctx "parser.parse" (fun _ -> Soc_core.Parser.parse src) in
        let diags = Spans.opt sp ctx "analyze.run" (fun _ -> Soc_analysis.Analyze.run ~kernels spec) in
        Common.gate (not (Soc_util.Diag.has_errors diags)) "a generated design fails static analysis";
        { Jobgraph.spec; kernels })
      inp.designs
  in
  let plan =
    match sp with
    | Some t -> Some (Spans.span t ctx "jobgraph.plan" (fun _ -> Jobgraph.plan ~hls_config ~fifo_depth entries))
    | None -> None
  in
  let report = Replay.build_batch sp ctx ~jobs ~hls_config ~fifo_depth ~cache:(Cache.create ()) entries in
  let manifest = Spans.opt sp ctx "farm.manifest_json" (fun _ -> Farm.manifest_json report) in
  let ok = report.Farm.failures = [] && List.length report.Farm.builds = batch in
  (match (sp, plan) with
  | Some t, Some plan ->
    Array.iter
      (fun (n : Jobgraph.node) ->
        match n.Jobgraph.task with
        | Jobgraph.Hls { kernel; _ } ->
          ignore (Spans.span t ctx "hls.synth" (fun _ -> Soc_hls.Engine.synthesize ~config:hls_config kernel))
        | _ -> ())
      plan.Jobgraph.nodes;
    List.iter (fun (_, b) -> Replay.flow t ctx ~fifo_depth b) report.Farm.builds
  | _ -> ());
  let s = report.Farm.stats in
  let c = s.Farm.cache in
  let requests = match plan with Some p -> Replay.kernel_requests p | None -> 0 in
  ( ok,
    { manifest;
      engine_runs = s.Farm.engine_invocations;
      lookups = c.Cache.hits + c.Cache.disk_hits + c.Cache.misses;
      hits = c.Cache.hits + c.Cache.disk_hits;
      kernel_requests = requests;
      distinct = s.Farm.distinct_kernels } )

let run_op ?sp ~phase i inp =
  let ok, o = op ?sp i inp in
  Common.gate ok (Printf.sprintf "generate_cold batch %d has failed builds" i);
  Common.record phase (if ok then Ok () else Error "farm_failure");
  o

(* Warm-up inputs are the same for every seed. *)
let setup () =
  let phase = Common.phase "warmup" in
  let t0 = Common.now () in
  for i = 0 to warmup_ops - 1 do
    ignore (run_op ~phase i (input ~seed:0 ~stream:0 i))
  done;
  Common.now () -. t0

(* Set-ups: one before the timed phase, the rest spread over it. *)
let untraced ~seed ~seconds =
  let s0 = setup () in
  let phase = Common.phase "timed" in
  let lats = ref [] in
  let i = ref 0 in
  let heap = Common.heap_probe ~at:(int_of_float (heap_ops_per_s *. seconds)) in
  let setup_times, wall, cpu =
    Common.timed_phase ~seconds ~setups:(setups - 1) ~setup (fun () ->
        let inp = input ~seed ~stream:1 !i in
        let s = Common.now () in
        ignore (run_op ~phase !i inp);
        lats := (Common.now () -. s) *. 1000.0 :: !lats;
        incr i;
        Common.heap_note heap ~ops:!i)
  in
  Printf.printf "latency samples: %d (timed phase, 1 caller, closed loop, %d farm domains)\n" !i jobs;
  [ ("throughput_ops_per_s", float_of_int !i /. wall);
    ("latency_p50_ms", Common.percentile !lats 50.0);
    ("latency_p95_ms", Common.percentile !lats 95.0);
    ("cpu_ms_per_op", 1000.0 *. cpu /. float_of_int (max 1 !i));
    ("peak_heap_mb", Common.heap_value heap);
    ("setup_s", Common.median (s0 :: setup_times)) ]

let traced_ops ~seconds = max 2 (int_of_float (30.0 *. seconds))

let traced ~seed ~ops sp =
  ignore (setup ());
  let inputs = Array.init ops (fun i -> input ~seed ~stream:1 i) in
  let untraced_phase = Common.phase "untraced" in
  let gc0 = Common.gc_mark () in
  let t0 = Common.now () in
  let plain = Array.mapi (fun i inp -> (run_op ~phase:untraced_phase i inp).manifest) inputs in
  let wall_u = Common.now () -. t0 in
  let gc = Common.gc_metrics gc0 ~ops in
  let phase = Common.phase "traced" in
  let t1 = Common.now () in
  let outs = Array.mapi (fun i inp -> run_op ~sp ~phase i inp) inputs in
  let wall_t = Common.now () -. t1 in
  Array.iteri
    (fun i o ->
      Common.gate (o.manifest = plain.(i))
        (Printf.sprintf "generate_cold op %d: traced and untraced manifests differ" i))
    outs;
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  let lookups = sum (fun o -> o.lookups) in
  Replay.layer_metrics sp ~ops
  @ gc
  @ [ ("hls.engine_runs", Common.ratio (sum (fun o -> o.engine_runs)) ops);
      ("jobgraph.dedup_ratio",
       1.0 -. Common.ratio (sum (fun o -> o.distinct)) (sum (fun o -> o.kernel_requests)));
      ("cache.lookups", Common.ratio lookups ops);
      ("cache.hit_ratio", Common.ratio (sum (fun o -> o.hits)) lookups);
      ("trace.overhead_pct", 100.0 *. ((wall_t /. wall_u) -. 1.0)) ]
