(* explore_rtl: in-process autotuning sweeps in RTL mode, one cache with the
   tape cache enabled shared across the run. Every evaluated point is
   co-simulated cycle-accurately and golden-checked, so tape compilation,
   the compiled simulator and the platform executive dominate. *)

module Cache = Soc_farm.Cache
module Farm = Soc_farm.Farm
module Tuner = Soc_dse.Tuner
module Search = Soc_tune.Search
module Rtl_engine = Soc_rtl_compile.Engine

let samples = 8
let warmup_samples = 4
let setups = 9
let size = 16
let heap_ops_per_s = 8.0

let options ~seed ~samples =
  { Tuner.default_options with
    strategy = Search.Random samples; seed; width = size; height = size; mode = `Rtl; jobs = 1 }

(* Sweep [k] of stream [stream] gets its own tuner seed. *)
let sweep_seed ~seed ~stream k = Random.State.bits (Random.State.make [| seed; stream; k |])

let universe = (Tuner.space ()).Search.universe ()
let candidate_of_key key = List.find (fun c -> Tuner.key c = key) universe

type sweep = {
  evaluated : int;
  failures : int;
  cycles : int;
  wall : float;
  frontier : string;
  outcome : Tuner.outcome;
  lowerings : int;
  tape_hits : int;
  engines : int;
  lookups : int;
  hits : int;
}

let tape_hits cache =
  let t = Cache.tape_stats cache in
  t.Cache.tape_hits + t.Cache.tape_disk_hits

let lookups_hits cache =
  let s = Cache.stats cache in
  (s.Cache.hits + s.Cache.disk_hits + s.Cache.misses, s.Cache.hits + s.Cache.disk_hits)

(* One [Tuner.run] sweep; every evaluated candidate is one op. *)
let run_sweep ?sp ~phase ~cache k opts =
  let l0 = Rtl_engine.lowering_count () in
  let th0 = tape_hits cache in
  let e0 = Soc_hls.Engine.invocation_count () in
  let lk0, h0 = lookups_hits cache in
  let t0 = Common.now () in
  let o = Spans.opt sp (Spans.root k) "tune.run" (fun _ -> Tuner.run ~cache opts) in
  let wall = Common.now () -. t0 in
  let r = o.Tuner.search in
  let failures = List.length r.Search.failures in
  List.iter (fun (key, why) -> Common.gate false ("explore_rtl candidate " ^ key ^ " failed: " ^ why))
    r.Search.failures;
  for _ = 1 to r.Search.evaluated - failures do Common.record phase (Ok ()) done;
  List.iter (fun _ -> Common.record phase (Error "tuner_failure")) r.Search.failures;
  let lk1, h1 = lookups_hits cache in
  { evaluated = r.Search.evaluated;
    failures;
    cycles = List.fold_left (fun acc (p : Search.point) -> acc + p.Search.cycles) 0 r.Search.points;
    wall;
    frontier = Soc_tune.Render.frontier_json r;
    outcome = o;
    lowerings = Rtl_engine.lowering_count () - l0;
    tape_hits = tape_hits cache - th0;
    engines = Soc_hls.Engine.invocation_count () - e0;
    lookups = lk1 - lk0;
    hits = h1 - h0 }

(* A fresh cache with the tape cache on, warmed by one small sweep whose
   inputs are the same for every seed. *)
let setup () =
  let phase = Common.phase "warmup" in
  let t0 = Common.now () in
  let cache = Cache.create () in
  Cache.enable_tape_cache cache;
  ignore (run_sweep ~phase ~cache (-1)
            (options ~seed:(sweep_seed ~seed:0 ~stream:0 0) ~samples:warmup_samples));
  (cache, Common.now () -. t0)

let fallbacks () = (Rtl_engine.fallback_count (), Rtl_engine.verify_reject_count ())

(* Set-ups: the first warms the run's cache; the rest, spread over the
   timed phase, warm caches of their own that are then dropped. *)
let untraced ~seed ~seconds =
  let f0 = fallbacks () in
  let cache, s0 = setup () in
  let setup () =
    let _, s = setup () in
    Cache.enable_tape_cache cache;
    s
  in
  let phase = Common.phase "timed" in
  let sweeps = ref [] in
  let ops = ref 0 in
  let heap = Common.heap_probe ~at:(int_of_float (heap_ops_per_s *. seconds)) in
  let setup_times, wall, cpu =
    Common.timed_phase ~seconds ~setups:(setups - 1) ~setup (fun () ->
        let k = List.length !sweeps in
        let s = run_sweep ~phase ~cache k (options ~seed:(sweep_seed ~seed ~stream:1 k) ~samples) in
        sweeps := s :: !sweeps;
        ops := !ops + s.evaluated;
        Common.heap_note heap ~ops:!ops)
  in
  Common.gate (fallbacks () = f0) "compiled-simulator fallbacks or verifier rejects moved";
  let ops = !ops in
  (* A sweep prices its points as one population, so a point's latency is
     its sweep's wall time over the points it evaluated. *)
  let per_point =
    List.filter_map
      (fun s -> if s.evaluated > 0 then Some (1000.0 *. s.wall /. float_of_int s.evaluated) else None)
      !sweeps
  in
  Printf.printf "latency samples: %d sweeps, %d points (1 caller, closed loop, 1 farm domain)\n"
    (List.length per_point) ops;
  [ ("throughput_ops_per_s", float_of_int ops /. wall);
    ("latency_p50_ms", Common.percentile per_point 50.0);
    ("latency_p95_ms", Common.percentile per_point 95.0);
    ("cpu_ms_per_op", 1000.0 *. cpu /. float_of_int (max 1 ops));
    ("peak_heap_mb", Common.heap_value heap);
    ("setup_s", Common.median (s0 :: setup_times)) ]

(* Replay every feasible point of a sweep from outside: rebuild it from the
   warm cache, time [Runner.measure] on it, and time a tape compile of each
   of its netlists with no tape cache installed. *)
let replay sp ~cache k opts (r : Search.result) =
  let ctx = Spans.root k in
  let device = Tuner.budget_device opts.Tuner.budget_pct in
  List.iter
    (fun (p : Search.point) ->
      let c = candidate_of_key p.Search.key in
      let prep = Tuner.prepare opts device c in
      let build =
        match prep.Soc_tune.Eval.entry with
        | None -> None
        | Some entry ->
          let report =
            Replay.build_batch (Some sp) ctx ~jobs:1 ~hls_config:prep.Soc_tune.Eval.config
              ~fifo_depth:prep.Soc_tune.Eval.fifo_depth ~cache [ entry ]
          in
          (match report.Farm.builds with [ (_, b) ] -> Some b | _ -> None)
      in
      let rp =
        Spans.span sp ctx "runner.measure" (fun _ ->
            Soc_dse.Runner.measure ~width:opts.Tuner.width ~height:opts.Tuner.height
              ~seed:opts.Tuner.image_seed ~fifo_depth:prep.Soc_tune.Eval.fifo_depth ~mode:`Rtl build
              c.Tuner.part)
      in
      Common.gate (rp.Soc_dse.Runner.cycles = p.Search.cycles)
        ("replayed measurement of " ^ p.Search.key ^ " disagrees with the sweep");
      match build with
      | None -> ()
      | Some b ->
        Rtl_engine.install_tape_cache None;
        Fun.protect ~finally:(fun () -> Cache.enable_tape_cache cache) (fun () ->
            List.iter
              (fun (impl : Soc_core.Flow.node_impl) ->
                ignore
                  (Spans.span sp ctx "tape.compile" (fun _ ->
                       Rtl_engine.create ~backend:Rtl_engine.Compiled
                         impl.Soc_core.Flow.accel.Soc_hls.Engine.fsmd.Soc_hls.Fsmd.netlist)))
              b.Soc_core.Flow.impls))
    r.Search.points

let traced_sweeps ~seconds = max 1 (int_of_float (seconds /. 3.0))

(* One pass of [n] sweeps on a fresh warmed cache. *)
let pass ?sp ~seed ~phase n =
  let cache, _ = setup () in
  let t0 = Common.now () in
  let sweeps =
    List.init n (fun k ->
        let opts = options ~seed:(sweep_seed ~seed ~stream:1 k) ~samples in
        let s = run_sweep ?sp ~phase ~cache k opts in
        (match sp with Some t -> replay t ~cache k opts s.outcome.Tuner.search | None -> ());
        s)
  in
  (sweeps, Common.now () -. t0)

let traced ~seed ~ops sp =
  let f0 = fallbacks () in
  let gc0 = Common.gc_mark () in
  let plain, wall_u = pass ~seed ~phase:(Common.phase "untraced") ops in
  let evaluated = List.fold_left (fun acc s -> acc + s.evaluated) 0 plain in
  let gc = Common.gc_metrics gc0 ~ops:evaluated in
  let cycles_u = List.fold_left (fun acc s -> acc + s.cycles) 0 plain in
  let sweeps, wall_t = pass ~sp ~seed ~phase:(Common.phase "traced") ops in
  List.iteri
    (fun k (a, b) ->
      Common.gate (a.frontier = b.frontier)
        (Printf.sprintf "explore_rtl sweep %d: traced and untraced frontier JSON differ" k))
    (List.combine plain sweeps);
  Common.gate (fallbacks () = f0) "compiled-simulator fallbacks or verifier rejects moved";
  let n = List.fold_left (fun acc s -> acc + s.evaluated) 0 sweeps in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sweeps in
  let per x = Common.ratio x n in
  let tune f = sum (fun s -> f s.outcome) in
  let requests = tune (fun o -> o.Tuner.hls_requests) in
  let lookups = sum (fun s -> s.lookups) in
  let tbl = Spans.self_by_name sp in
  Replay.layer_metrics sp ~ops:n
  @ gc
  @ [ ("hls.engine_runs", per (sum (fun s -> s.engines)));
      ("cache.lookups", per lookups);
      ("cache.hit_ratio", Common.ratio (sum (fun s -> s.hits)) lookups);
      ("tape.lowerings", per (sum (fun s -> s.lowerings)));
      ("tape.cache_hits", per (sum (fun s -> s.tape_hits)));
      ("tape.compile_us", Common.self_per_op tbl ~ops:n ~scale:1e6 "tape.compile");
      ("runner.measure_ms", Common.self_per_op tbl ~ops:n ~scale:1e3 "runner.measure");
      ("sim.cycles", per (sum (fun s -> s.cycles)));
      ("sim.mcycles_per_s", float_of_int cycles_u /. 1e6 /. wall_u);
      ("tune.hls_requests", per requests);
      ("tune.engine_runs", per (tune (fun o -> o.Tuner.engine_invocations)));
      ("tune.dedup_ratio", 1.0 -. Common.ratio (tune (fun o -> o.Tuner.engine_invocations)) requests);
      ("tune.pruned", per (tune (fun o -> o.Tuner.pruned)));
      ("trace.overhead_pct", 100.0 *. ((wall_t /. wall_u) -. 1.0)) ]
