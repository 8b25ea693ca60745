(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   An untraced run (--trace 0) measures the workload for S seconds and
   prints every end-to-end metric; a traced run (--trace 1) runs a fixed
   number of ops twice on the same seeded inputs, untraced then traced,
   checks that both produce the same outputs, and prints every per-layer
   metric. The spans of the traced pass are written to
   perfbench_out/<workload>-seed<N>.trace.json. The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. The
   exit code is 1 when a correctness gate failed. *)

type workload = {
  name : string;
  untraced : seed:int -> seconds:float -> (string * float) list;
  traced_ops : seconds:float -> int;
      (* size of a traced run, in the workload's unit: requests, batches
         or sweeps *)
  traced : seed:int -> ops:int -> Spans.t -> (string * float) list;
}

let workloads =
  [ { name = "serve_warm";
      untraced = Serve_wl.untraced Serve_wl.Warm;
      traced_ops = Serve_wl.traced_ops;
      traced = Serve_wl.traced Serve_wl.Warm };
    { name = "serve_fleet";
      untraced = Serve_wl.untraced Serve_wl.Fleet;
      traced_ops = Serve_wl.traced_ops;
      traced = Serve_wl.traced Serve_wl.Fleet };
    { name = "generate_cold";
      untraced = Generate_wl.untraced;
      traced_ops = Generate_wl.traced_ops;
      traced = Generate_wl.traced };
    { name = "explore_rtl";
      untraced = Explore_wl.untraced;
      traced_ops = Explore_wl.traced_sweeps;
      traced = Explore_wl.traced } ]

(* Every declared metric of the run's table, with its unit. A per-layer
   metric the workload does not reach reads 0; a measured metric that is
   not declared is a bug in the benchmark. *)
let complete table measured =
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n table) then invalid_arg ("undeclared metric " ^ n))
    measured;
  List.map (fun (n, u) -> (n, Option.value ~default:0.0 (List.assoc_opt n measured), u)) table

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %16.6f %s\n" n v u) metrics;
  List.iter (fun m -> Printf.printf "GATE FAILED: %s\n" m) (Common.gates_failed ());
  let attempted, failed = Common.totals () in
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (Common.gates_failed () = []) (max 1 attempted) failed body

let write_spans w ~seed sp =
  Common.mkdir_p "perfbench_out";
  let path = Printf.sprintf "perfbench_out/%s-seed%d.trace.json" w.name seed in
  Soc_util.Atomic_io.write_file path (Spans.to_chrome_json sp);
  Printf.printf "spans: %d written to %s\n" (List.length (Spans.spans sp)) path

let run w ~seed ~seconds ~trace =
  let end_to_end, per_layer = Common.declared_metrics () in
  let metrics =
    if trace then begin
      let sp = Spans.create () in
      let m = w.traced ~seed ~ops:(w.traced_ops ~seconds) sp in
      write_spans w ~seed sp;
      complete per_layer m
    end
    else complete end_to_end (w.untraced ~seed ~seconds)
  in
  Common.print_phases ();
  print_result metrics

(* Each workload at a tiny size, twice on one seed: the exact counters must
   repeat and every gate must pass. *)
let self_test () =
  let _, per_layer = Common.declared_metrics () in
  let ok = ref true in
  List.iter
    (fun w ->
      let once () =
        complete per_layer (w.traced ~seed:7 ~ops:(w.traced_ops ~seconds:1.0) (Spans.create ()))
      in
      let a = once () and b = once () in
      List.iter
        (fun n ->
          let value m = List.find_map (fun (n', v, _) -> if n' = n then Some v else None) m in
          let va = value a and vb = value b in
          let same = va = vb in
          if not same then ok := false;
          Printf.printf "%-14s %-26s %14.6f %14.6f %s\n" w.name n (Option.get va) (Option.get vb)
            (if same then "ok" else "DIFFERS"))
        Common.exact_counters)
    workloads;
  let gates = Common.gates_failed () in
  List.iter (fun m -> Printf.printf "GATE FAILED: %s\n" m) gates;
  Common.print_phases ();
  let pass = !ok && gates = [] in
  Printf.printf "self-test: %s\n" (if pass then "PASS" else "FAIL");
  pass

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and selftest = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of serve_warm, serve_fleet, generate_cold, explore_rtl");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--self-test", Arg.Set selftest, " run every workload tiny, twice, and check repeatability") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Common.cleanup;
  Soc_fault.Fault.Net.reset ();
  if !selftest then exit (if self_test () then 0 else 1);
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some w ->
    run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
    exit (if Common.gates_failed () = [] then 0 else 1)
