(* serve_warm and serve_fleet: closed-loop clients against an in-process
   generation daemon whose cache was warmed first, so the timed phase runs
   no HLS engine and measures admission, the wire, the protocol, the
   scheduler and (for the fleet) the coordinator-to-worker hop. *)

module P = Soc_serve.Protocol
module Server = Soc_serve.Server
module Client = Soc_serve.Client
module Remote = Soc_serve.Remote
module Farm = Soc_farm.Farm
module Cache = Soc_farm.Cache
module Jobgraph = Soc_farm.Jobgraph
module Partition = Soc_dse.Partition
module Spec = Soc_core.Spec

type mode = Warm | Fleet

let connections = 2
let workers = 2
let fleet_size = 2
let setups = 3
let image = 48
let heap_ops_per_s = 5.0

let kernels = Soc_apps.Otsu.kernels ~width:image ~height:image

(* The daemon's own per-spec kernel filter, so a direct build of a design
   byte-matches the served one. *)
let kernels_for (spec : Spec.t) =
  List.filter
    (fun (name, _) -> List.exists (fun (n : Spec.node_spec) -> n.Spec.node_name = name) spec.Spec.nodes)
    kernels

type design = { signature : string; source : string; expected : string }

(* The tuner's 15 hardware partitions as canonical DSL text, each with the
   manifest of a direct [Farm.build_batch] — the served-result oracle. The
   returned cache is warm with every design, for the traced replays. *)
let designs () =
  let cache = Cache.create () in
  let ds =
    Partition.enumerate ()
    |> List.filter (fun p -> not (Partition.is_all_sw p))
    |> List.map (fun p ->
           let source = Soc_core.Printer.to_source (Partition.spec_of p) in
           let spec = Soc_core.Parser.parse ~validate:false source in
           let report = Farm.build_batch ~jobs:1 ~cache [ { Jobgraph.spec; kernels = kernels_for spec } ] in
           Common.gate (report.Farm.failures = [])
             ("direct build of " ^ Partition.signature p ^ " failed");
           { signature = Partition.signature p; source; expected = Farm.manifest_json report })
    |> Array.of_list
  in
  (ds, cache)

(* Request [i] of a seed's timed sequence: a design index. *)
let sequence ~seed n =
  let st = Common.rng seed 1 in
  Array.init 100_000 (fun _ -> Random.State.int st n)

type daemon = { server : Server.t; remotes : Remote.t list; dir : string }

let start mode =
  let dir = Common.fresh_dir "serve" in
  let remotes =
    match mode with
    | Warm -> []
    | Fleet ->
      List.init fleet_size (fun i ->
          Remote.start
            { Remote.default_config with
              cache_dir = Some dir; kernels; worker_id = Printf.sprintf "w%d" i })
  in
  let server =
    Server.start
      { Server.default_config with
        workers; kernels; cache_dir = Some dir;
        fleet = List.map (fun w -> ("127.0.0.1", Remote.port w)) remotes }
  in
  { server; remotes; dir }

(* Drain and stop the daemon and its workers, then drop its cache dir. *)
let stop d =
  (try
     let c = Client.connect ~port:(Server.port d.server) () in
     Fun.protect ~finally:(fun () -> Client.close c) (fun () -> ignore (Client.drain c));
     ignore (Server.wait d.server)
   with _ -> ());
  (try Server.stop d.server with _ -> ());
  List.iter (fun w -> try Remote.stop w with _ -> ()) d.remotes;
  Soc_fault.Fault.Net.reset ();
  Common.rm_rf d.dir

let classify (d : design) = function
  | P.Accepted _, Some (P.Result_r { state = P.Done; manifest; _ }) ->
    if manifest = d.expected then Ok ()
    else begin
      Common.gate false
        ("served manifest of " ^ d.signature ^ " differs from a direct Farm.build_batch");
      Error "manifest_mismatch"
    end
  | P.Rejected { reason; _ }, _ -> Error (P.reject_reason_label reason)
  | _, Some (P.Result_r { state; _ }) -> Error (P.state_label state)
  | _ -> Error "unexpected_response"

(* Closed loop over [connections] clients: each takes the next request
   index from [next] only after its previous reply. *)
let drive ~port ~phase ~next op =
  Common.parallel connections (fun _ ->
      let c = ref (Client.connect ~port ()) in
      let rec loop () =
        match next () with
        | None -> ()
        | Some i ->
          (try op !c i
           with Client.Error _ ->
             Common.record phase (Error "client_error");
             Client.close !c;
             c := Client.connect ~port ());
          loop ()
      in
      Fun.protect ~finally:(fun () -> Client.close !c) loop)

let counter_upto n =
  let k = Atomic.make 0 in
  fun () ->
    let i = Atomic.fetch_and_add k 1 in
    if i < n then Some i else None

(* One submit-and-wait; returns its latency in seconds when it succeeded. *)
let timed_op ~phase (d : design) c =
  let t0 = Common.now () in
  let resp = Client.submit_and_wait c d.source in
  let dt = Common.now () -. t0 in
  let outcome = classify d resp in
  Common.record phase outcome;
  match outcome with Ok () -> Some dt | Error _ -> None

(* Start the daemon and submit every design once. *)
let setup mode ds =
  let t0 = Common.now () in
  let d = start mode in
  let phase = Common.phase "warmup" in
  drive ~port:(Server.port d.server) ~phase ~next:(counter_upto (Array.length ds)) (fun c i ->
      ignore (timed_op ~phase ds.(i) c));
  (d, Common.now () -. t0)

(* Run requests [next] in a closed loop; (wall s, latencies s, CPU ms per
   op). [heap] is noted after every completed request. *)
let timed_pass ?(heap = Common.heap_probe ~at:max_int) d ~phase ~next ds seq =
  let lock = Mutex.create () in
  let lats = ref [] in
  let done_ = Atomic.make 0 in
  let e0 = Soc_hls.Engine.invocation_count () in
  let cpu0 = Common.cpu_seconds () in
  let t0 = Common.now () in
  drive ~port:(Server.port d.server) ~phase ~next (fun c i ->
      (match timed_op ~phase ds.(seq.(i mod Array.length seq)) c with
      | Some dt -> Mutex.lock lock; lats := dt :: !lats; Mutex.unlock lock
      | None -> ());
      Common.heap_note heap ~ops:(Atomic.fetch_and_add done_ 1 + 1));
  let wall = Common.now () -. t0 in
  let engines = Soc_hls.Engine.invocation_count () - e0 in
  Common.gate (engines = 0)
    (Printf.sprintf "timed %s phase ran %d HLS engine(s); expected 0" phase.Common.pname engines);
  let cpu = 1000.0 *. (Common.cpu_seconds () -. cpu0) /. float_of_int (max 1 phase.Common.sent) in
  (wall, !lats, cpu)

let untraced mode ~seed ~seconds =
  Soc_fault.Fault.Net.reset ();
  let ds, _ = designs () in
  let seq = sequence ~seed (Array.length ds) in
  let rec setups_loop k acc =
    let d, s = setup mode ds in
    if k = 1 then (d, s :: acc)
    else begin
      stop d;
      setups_loop (k - 1) (s :: acc)
    end
  in
  let d, setup_times = setups_loop setups [] in
  Fun.protect ~finally:(fun () -> stop d) (fun () ->
      let phase = Common.phase "timed" in
      let deadline = Common.now () +. seconds in
      let k = Atomic.make 0 in
      let next () = if Common.now () < deadline then Some (Atomic.fetch_and_add k 1) else None in
      let heap = Common.heap_probe ~at:(int_of_float (heap_ops_per_s *. seconds)) in
      let wall, lats, cpu = timed_pass ~heap d ~phase ~next ds seq in
      let n = List.length lats in
      Printf.printf "latency samples: %d (timed phase, %d connections, closed loop)\n" n connections;
      let ms = List.map (fun s -> s *. 1000.0) lats in
      [ ("throughput_ops_per_s", float_of_int n /. wall);
        ("latency_p50_ms", Common.percentile ms 50.0);
        ("latency_p95_ms", Common.percentile ms 95.0);
        ("cpu_ms_per_op", cpu);
        ("peak_heap_mb", Common.heap_value heap);
        ("setup_s", Common.median setup_times) ])

(* The frames of one request as the wire carries them, with the
   run-dependent fields (request id, coalesced flag, build wall time) fixed
   so the byte count repeats exactly. *)
let frames (d : design) (acc : P.response) (res : P.response) =
  let acc = match acc with P.Accepted a -> P.Accepted { a with id = 0; coalesced = false } | r -> r in
  let res = match res with P.Result_r r -> P.Result_r { r with id = 0; wall_ms = 0.0 } | r -> r in
  ([ P.Submit { source = d.source; priority = 0; deadline_ms = None }; P.Result 0 ], [ acc; res ])

type tally = { frame_bytes : int Atomic.t; kernel_requests : int Atomic.t; distinct : int Atomic.t }

(* One traced request: ping, then submit and result as separate calls, then
   the in-process replay of the request's layer calls. *)
let traced_op sp mode ~phase ~direct ~tally ~remote c i (ds : design) =
  let ctx = Spans.root i in
  ignore (Spans.span sp ctx "wire.ping" (fun _ -> Client.ping c));
  let acc = Spans.span sp ctx "serve.submit" (fun _ -> Client.submit c ds.source) in
  match acc with
  | P.Accepted { id; key; _ } ->
    let res = Spans.span sp ctx "serve.result" (fun _ -> Client.result c id) in
    Common.record phase (classify ds (acc, Some res));
    let reqs, resps = frames ds acc res in
    let encoded =
      Spans.span sp ctx "protocol.encode" (fun _ ->
          List.map (fun r -> P.to_string (P.encode_request r)) reqs
          @ List.map (fun r -> P.to_string (P.encode_response r)) resps)
    in
    Spans.span sp ctx "protocol.decode" (fun _ ->
        List.iteri
          (fun k s ->
            let j = P.of_string s in
            let ok =
              if k < 2 then Result.is_ok (P.decode_request j) else Result.is_ok (P.decode_response j)
            in
            Common.gate ok "a served frame does not decode")
          encoded);
    ignore (Atomic.fetch_and_add tally.frame_bytes
              (List.fold_left (fun acc s -> acc + 4 + String.length s) 0 encoded));
    let spec = Spans.span sp ctx "parser.parse" (fun _ -> Soc_core.Parser.parse ~validate:false ds.source) in
    let kernels = kernels_for spec in
    ignore (Spans.span sp ctx "analyze.run" (fun _ -> Soc_analysis.Analyze.run ~kernels spec));
    let entry = { Jobgraph.spec; kernels } in
    let plan = Spans.span sp ctx "jobgraph.plan" (fun _ -> Jobgraph.plan [ entry ]) in
    ignore (Atomic.fetch_and_add tally.distinct (Jobgraph.distinct_kernels plan));
    ignore (Atomic.fetch_and_add tally.kernel_requests (Replay.kernel_requests plan));
    let report = Replay.build_batch (Some sp) ctx ~jobs:1 ~cache:direct [ entry ] in
    let manifest = Spans.span sp ctx "farm.manifest_json" (fun _ -> Farm.manifest_json report) in
    Common.gate (manifest = ds.expected) ("replayed manifest of " ^ ds.signature ^ " differs");
    List.iter
      (fun (_, b) -> Replay.flow sp ctx ~fifo_depth:plan.Jobgraph.fifo_depth b)
      report.Farm.builds;
    (match (mode, remote) with
    | Fleet, Some w ->
      ignore
        (Spans.span sp ctx "remote.handle" (fun _ ->
             Remote.handle w (P.Build { source = ds.source; key; deadline_ms = None })))
    | _ -> ())
  | other -> Common.record phase (classify ds (other, None))

let traced_ops ~seconds = max 4 (int_of_float (3.0 *. seconds))

let traced mode ~seed ~ops sp =
  Soc_fault.Fault.Net.reset ();
  let ds, direct = designs () in
  let seq = sequence ~seed (Array.length ds) in
  let d, _ = setup mode ds in
  Fun.protect ~finally:(fun () -> stop d) (fun () ->
      let untraced_phase = Common.phase "untraced" in
      let gc0 = Common.gc_mark () in
      let wall_u, _, _ = timed_pass d ~phase:untraced_phase ~next:(counter_upto ops) ds seq in
      let gc = Common.gc_metrics gc0 ~ops in
      let phase = Common.phase "traced" in
      let tally =
        { frame_bytes = Atomic.make 0; kernel_requests = Atomic.make 0; distinct = Atomic.make 0 }
      in
      let remote = match d.remotes with w :: _ -> Some w | [] -> None in
      let s0 = Server.stats d.server in
      let e0 = Soc_hls.Engine.invocation_count () in
      let t0 = Common.now () in
      drive ~port:(Server.port d.server) ~phase ~next:(counter_upto ops) (fun c i ->
          traced_op sp mode ~phase ~direct ~tally ~remote c i ds.(seq.(i)));
      let wall_t = Common.now () -. t0 in
      let engines = Soc_hls.Engine.invocation_count () - e0 in
      Common.gate (engines = 0)
        (Printf.sprintf "traced serve phase ran %d HLS engine(s); expected 0" engines);
      let s1 = Server.stats d.server in
      let delta f = f s1 - f s0 in
      let per x = Common.ratio x ops in
      let lookups = delta (fun s -> s.P.cache_hits + s.P.cache_disk_hits + s.P.cache_misses) in
      let mean_ms name = Spans.total sp name *. 1000.0 /. float_of_int ops in
      let served = mean_ms "serve.submit" +. mean_ms "serve.result" in
      let replayed =
        List.fold_left (fun acc n -> acc +. mean_ms n) 0.0
          [ "parser.parse"; "analyze.run"; "farm.build_batch"; "farm.manifest_json";
            "protocol.encode"; "protocol.decode" ]
      in
      Replay.layer_metrics sp ~ops
      @ gc
      @ [ ("hls.engine_runs", per engines);
          ("jobgraph.dedup_ratio",
           1.0 -. Common.ratio (Atomic.get tally.distinct) (Atomic.get tally.kernel_requests));
          ("cache.lookups", per lookups);
          ("cache.hit_ratio",
           Common.ratio (delta (fun s -> s.P.cache_hits + s.P.cache_disk_hits)) lookups);
          ("protocol.frame_bytes", per (Atomic.get tally.frame_bytes));
          ("wire.ping_rtt_ms", mean_ms "wire.ping");
          ("serve.submit_ms", mean_ms "serve.submit");
          ("serve.result_ms", mean_ms "serve.result");
          ("serve.wait_ms", served -. replayed);
          ("serve.coalesced_ratio",
           Common.ratio (delta (fun s -> s.P.coalesced)) (delta (fun s -> s.P.submitted)));
          ("serve.rejected",
           per (delta (fun s -> s.P.rejected_queue + s.P.rejected_check + s.P.rejected_poisoned)));
          ("serve.worker_restarts", per (delta (fun s -> s.P.worker_restarts)));
          (* per request that reached a worker: coalesced requests attach
             to a build already dispatched *)
          ("fleet.dispatches_per_req",
           Common.ratio (delta (fun s -> s.P.remote_dispatches))
             (delta (fun s -> s.P.submitted - s.P.coalesced)));
          ("fleet.retries", per (delta (fun s -> s.P.remote_retries)));
          ("fleet.hedges", per (delta (fun s -> s.P.remote_hedges)));
          ("fleet.fallbacks", per (delta (fun s -> s.P.remote_fallbacks)));
          ("fleet.hop_ms",
           (match mode with Fleet -> mean_ms "serve.result" -. mean_ms "remote.handle" | Warm -> 0.0));
          ("trace.overhead_pct", 100.0 *. ((wall_t /. wall_u) -. 1.0)) ])
