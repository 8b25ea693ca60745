(* Shared plumbing of the benchmark: clocks, exact percentiles, the
   correctness gates, per-phase op accounting, the metric tables and the
   run's scratch directory. *)

let now = Unix.gettimeofday

(* ---------- statistics ---------- *)

(* Exact percentile of raw samples, linear between order statistics. *)
let percentile samples p =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = percentile samples 50.0

(* Process user + system CPU seconds (all threads and domains). *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A timed phase: [step] runs back to back for [seconds] seconds, cut into
   [setups + 1] equal slices with one [setup] call between consecutive
   slices. The host's speed drifts over seconds, so set-up samples spread
   over the run give a median as steady as the figures of the long timed
   phase, where set-ups run back to back before it would share one slow or
   fast spell. The set-up pauses are not part of the phase. Returns the
   set-up samples, and the phase's wall and CPU seconds. *)
let timed_phase ~seconds ~setups ~setup step =
  let slice = seconds /. float_of_int (setups + 1) in
  let samples = ref [] and wall = ref 0.0 and cpu = ref 0.0 in
  for k = 0 to setups do
    if k > 0 then samples := setup () :: !samples;
    let t0 = now () and c0 = cpu_seconds () in
    while now () < t0 +. slice do
      step ()
    done;
    wall := !wall +. (now () -. t0);
    cpu := !cpu +. (cpu_seconds () -. c0)
  done;
  (!samples, !wall, !cpu)

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

(* The highest [peak_heap_mb] seen while a phase does its first [at] ops,
   sampled after every op. The major heap grows in steps with the work done
   (cache contents, domain spawns), so the figure must rest on a fixed
   amount of work, not on how much work fits in the time box. OCaml 5 sums
   [top_heap_words] over the live domains, so one reading can fall when a
   domain ends: the highest sample is the peak. *)
type heap_probe = { at : int; hlock : Mutex.t; mutable mb : float }

let heap_probe ~at = { at; hlock = Mutex.create (); mb = 0.0 }

let heap_note p ~ops =
  Mutex.lock p.hlock;
  if ops <= p.at then p.mb <- Float.max p.mb (peak_heap_mb ());
  Mutex.unlock p.hlock

let heap_value p = p.mb

(* ---------- correctness gates ---------- *)

let gate_lock = Mutex.create ()
let gate_failures : (string * int) list ref = ref []  (* message -> times *)

(* A gate that does not hold fails the run (reported, exit code 1). *)
let gate cond msg =
  if not cond then begin
    Mutex.lock gate_lock;
    let n = Option.value ~default:0 (List.assoc_opt msg !gate_failures) in
    gate_failures := (msg, n + 1) :: List.remove_assoc msg !gate_failures;
    Mutex.unlock gate_lock
  end

let gates_failed () =
  List.rev_map (fun (m, n) -> if n = 1 then m else Printf.sprintf "%s (x%d)" m n) !gate_failures

(* ---------- per-phase op accounting ---------- *)

type phase = {
  pname : string;
  plock : Mutex.t;
  mutable sent : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable reasons : (string * int) list;  (* failure reason -> count *)
}

let phases : phase list ref = ref []

(* The accounting of phase [pname], shared by every call naming it. *)
let phase pname =
  match List.find_opt (fun p -> p.pname = pname) !phases with
  | Some p -> p
  | None ->
    let p = { pname; plock = Mutex.create (); sent = 0; succeeded = 0; failed = 0; reasons = [] } in
    phases := p :: !phases;
    p

let record p outcome =
  Mutex.lock p.plock;
  p.sent <- p.sent + 1;
  (match outcome with
  | Ok () -> p.succeeded <- p.succeeded + 1
  | Error reason ->
    p.failed <- p.failed + 1;
    let n = Option.value ~default:0 (List.assoc_opt reason p.reasons) in
    p.reasons <- (reason, n + 1) :: List.remove_assoc reason p.reasons);
  Mutex.unlock p.plock

let totals () =
  List.fold_left (fun (a, f) p -> (a + p.sent, f + p.failed)) (0, 0) !phases

let print_phases () =
  List.iter
    (fun p ->
      Printf.printf "phase %-16s sent %5d  succeeded %5d  failed %3d%s\n" p.pname p.sent
        p.succeeded p.failed
        (String.concat ""
           (List.map (fun (r, n) -> Printf.sprintf "  [%s x%d]" r n) (List.rev p.reasons))))
    (List.rev !phases)

(* ---------- metrics ---------- *)

(* The metric tables of BENCHMARK.json, as (name, unit) lists: the file is
   the one place a metric is declared. *)
let declared_metrics () =
  let module P = Soc_serve.Protocol in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let table key =
    match P.mem key (P.of_string text) with
    | Some (P.Arr items) ->
      List.map
        (fun m ->
          match (P.mem "name" m, P.mem "unit" m) with
          | Some (P.Str n), Some (P.Str u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
        items
    | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " table")
  in
  (table "end_to_end", table "per_layer")

(* Counters that must repeat exactly across runs of one seed. *)
let exact_counters =
  [ "hls.engine_runs"; "jobgraph.dedup_ratio"; "tape.lowerings"; "sim.cycles";
    "fleet.dispatches_per_req"; "protocol.frame_bytes" ]

(* ---------- traced-run aggregation ---------- *)

(* Per-op self time, in [scale] units per second, of every span named
   [name]. *)
let self_per_op tbl ~ops ~scale name =
  if ops <= 0 then 0.0
  else Option.value ~default:0.0 (Hashtbl.find_opt tbl name) *. scale /. float_of_int ops

type gc_mark = { minor : float; major : float; promoted : float }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = float_of_int s.Gc.minor_collections;
    major = float_of_int s.Gc.major_collections;
    promoted = s.Gc.promoted_words }

let gc_metrics (a : gc_mark) ~ops =
  let b = gc_mark () in
  let per x = if ops <= 0 then 0.0 else x /. float_of_int ops in
  [ ("gc.minor_per_op", per (b.minor -. a.minor));
    ("gc.major_per_op", per (b.major -. a.major));
    ("gc.promoted_words_per_op", per (b.promoted -. a.promoted)) ]

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ---------- scratch space inside the working directory ---------- *)

let scratch_root = Filename.concat ".perfbench_tmp" (string_of_int (Unix.getpid ()))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir_counter = Atomic.make 0

(* A fresh, not yet existing cache directory under the run's scratch root. *)
let fresh_dir label =
  let d =
    Filename.concat scratch_root
      (Printf.sprintf "%s-%d" label (Atomic.fetch_and_add dir_counter 1))
  in
  mkdir_p scratch_root;
  d

let cleanup () =
  rm_rf scratch_root;
  (try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ())

(* ---------- seeded inputs ---------- *)

let rng seed stream = Random.State.make [| seed; stream |]

(* Run [k] thunks on their own threads and wait for all of them. *)
let parallel k f =
  let threads = List.init k (fun i -> Thread.create f i) in
  List.iter Thread.join threads
