(* Tests for the DSE extension: partition model, generated specs, the
   generic host runner, the 16-point sweep and its Pareto front, and the
   autotuner's greedy hill climb over the real Otsu space. *)

module P = Soc_dse.Partition

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Partition model                                                     *)
(* ------------------------------------------------------------------ *)

let test_enumerate_covers_space () =
  let all = P.enumerate () in
  check Alcotest.int "16 partitions" 16 (List.length all);
  check Alcotest.int "16 distinct signatures" 16
    (List.length (List.sort_uniq compare (List.map P.signature all)))

let test_signature_roundtrip () =
  List.iter
    (fun p -> check Alcotest.bool (P.signature p) true (P.of_signature (P.signature p) = p))
    (P.enumerate ())

let test_paper_archs_as_partitions () =
  check Alcotest.string "arch1" "SHSS" (P.signature P.arch1);
  check Alcotest.string "arch2" "SSHS" (P.signature P.arch2);
  check Alcotest.string "arch3" "SHHS" (P.signature P.arch3);
  check Alcotest.string "arch4" "HHHH" (P.signature P.arch4)

let test_specs_validate () =
  List.iter
    (fun p ->
      if not (P.is_all_sw p) then Soc_core.Spec.validate_exn (P.spec_of p))
    (P.enumerate ())

let test_arch_partition_specs_match_paper_archs () =
  (* The partition generator and the hand-written Table I specs agree on
     node sets and 'soc crossings. *)
  let crossing spec =
    ( List.length (Soc_core.Spec.soc_to_node_links spec),
      List.length (Soc_core.Spec.node_to_soc_links spec),
      List.length (Soc_core.Spec.internal_links spec) )
  in
  List.iter
    (fun (partition, arch) ->
      let a = P.spec_of partition in
      let b = Soc_apps.Graphs.arch_spec arch in
      check Alcotest.int
        (P.signature partition ^ " node count")
        (List.length b.Soc_core.Spec.nodes)
        (List.length a.Soc_core.Spec.nodes);
      check
        (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
        (P.signature partition ^ " link structure")
        (crossing b) (crossing a))
    [ (P.arch1, Soc_apps.Graphs.Arch1); (P.arch2, Soc_apps.Graphs.Arch2);
      (P.arch3, Soc_apps.Graphs.Arch3); (P.arch4, Soc_apps.Graphs.Arch4) ]

let test_direct_link_rule () =
  (* gray->seg is direct only when the whole pipeline is HW. *)
  let internal p = Soc_core.Spec.internal_links (P.spec_of p) in
  check Alcotest.int "full partition: 4 internal links" 4 (List.length (internal P.arch4));
  let gray_seg = { P.all_sw with P.gray = true; seg = true } in
  check Alcotest.int "gray+seg only: no internal links" 0 (List.length (internal gray_seg))

let test_hw_runs_grouping () =
  let runs p = List.map (List.map P.stage_name) (Soc_dse.Runner.hw_runs p) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "HHSS" [ [ "grayScale"; "histogram" ] ]
    (runs (P.of_signature "HHSS"));
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "HSSH"
    [ [ "grayScale" ]; [ "binarization" ] ]
    (runs (P.of_signature "HSSH"));
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "SSSS" [] (runs P.all_sw)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_all_sw_point () =
  let pt = Soc_dse.Runner.evaluate ~width:16 ~height:16 P.all_sw in
  check Alcotest.int "no fabric" 0 pt.Soc_dse.Runner.resources.Soc_hls.Report.lut;
  check Alcotest.bool "time charged" true (pt.Soc_dse.Runner.cycles > 0)

let test_every_partition_is_bit_exact () =
  (* Runner.evaluate raises Wrong_output internally when the image differs
     from the golden model, so completing the sweep is itself the check. *)
  let cache = Soc_farm.Cache.create () in
  let hls = Soc_farm.Cache.hls_engine cache in
  List.iter
    (fun p -> ignore (Soc_dse.Runner.evaluate ~width:12 ~height:12 ~hls p))
    (P.enumerate ())

let test_behavioral_mode_bit_exact () =
  (* The fast sweep mode produces identical images (functional check is
     internal to evaluate) and never slower-than-RTL timing. *)
  List.iter
    (fun sig_ ->
      let p = P.of_signature sig_ in
      let rtl = Soc_dse.Runner.evaluate ~width:12 ~height:12 ~mode:`Rtl p in
      let beh = Soc_dse.Runner.evaluate ~width:12 ~height:12 ~mode:`Behavioral p in
      check Alcotest.bool (sig_ ^ " same image") true
        (Soc_apps.Image.equal rtl.Soc_dse.Runner.output beh.Soc_dse.Runner.output);
      check Alcotest.bool (sig_ ^ " behavioral <= rtl cycles") true
        (beh.Soc_dse.Runner.cycles <= rtl.Soc_dse.Runner.cycles))
    [ "HHHH"; "SHHS" ]

let test_mixed_partition_threshold () =
  (* otsu in HW, seg in SW: the threshold must land in DRAM. *)
  let pt =
    Soc_dse.Runner.evaluate ~width:16 ~height:16 (P.of_signature "SSHS")
  in
  let _, golden_thr = Soc_apps.Otsu_runner.golden ~width:16 ~height:16 () in
  check Alcotest.int "threshold through DMA" golden_thr pt.Soc_dse.Runner.threshold

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

(* The 16-point sweep: every partition through one shared HLS cache. *)
let sweep =
  lazy
    (let hls = Soc_farm.Cache.hls_engine (Soc_farm.Cache.create ()) in
     let before = Soc_hls.Engine.invocation_count () in
     let points = List.map (fun p -> Soc_dse.Runner.evaluate ~width:16 ~height:16 ~hls p) (P.enumerate ()) in
     (points, Soc_hls.Engine.invocation_count () - before))

let cycles_lut (p : Soc_dse.Runner.point) =
  (p.Soc_dse.Runner.cycles, p.Soc_dse.Runner.resources.Soc_hls.Report.lut)

let front points =
  Soc_tune.Pareto.front
    ~objectives:(fun p ->
      let c, l = cycles_lut p in
      [| float_of_int c; float_of_int l |])
    points

let test_exhaustive_counts () =
  let points, engine_runs = Lazy.force sweep in
  check Alcotest.int "16 evaluations" 16 (List.length points);
  check Alcotest.int "each of the 4 kernels synthesized once" 4 engine_runs

let test_pareto_properties () =
  let points, _ = Lazy.force sweep in
  let front = front points in
  check Alcotest.bool "front non-empty" true (front <> []);
  let dominates a b =
    let (ca, la), (cb, lb) = (cycles_lut a, cycles_lut b) in
    ca <= cb && la <= lb && (ca < cb || la < lb)
  in
  (* No front point dominates another front point. *)
  List.iter
    (fun a ->
      List.iter
        (fun b -> if a != b && dominates a b then Alcotest.fail "front contains dominated point")
        front)
    front;
  (* Every non-front point is dominated by some front point. *)
  List.iter
    (fun p ->
      if not (List.memq p front) then
        check Alcotest.bool "dominated by front" true (List.exists (fun q -> dominates q p) front))
    points;
  (* The all-SW point (0 LUT) is always on the front. *)
  check Alcotest.bool "SW on front" true
    (List.exists (fun (q : Soc_dse.Runner.point) -> P.is_all_sw q.Soc_dse.Runner.partition) front)

(* The autotuner's greedy strategy over the full space: the partition
   hill climb at the default FIFO, schedule and FU knobs. *)
let greedy =
  lazy
    (Soc_dse.Tuner.run
       { Soc_dse.Tuner.default_options with
         Soc_dse.Tuner.strategy = Soc_tune.Search.Greedy; width = 16; height = 16 })
      .Soc_dse.Tuner.search

let test_greedy_descends () =
  let r = Lazy.force greedy in
  let cycles sig_ =
    let key = sig_ ^ "/f1024/list/std" in
    (List.find (fun (p : Soc_tune.Search.point) -> p.Soc_tune.Search.key = key)
       r.Soc_tune.Search.points).Soc_tune.Search.cycles
  in
  check Alcotest.string "starts all-SW" "SSSS/f1024/list/std"
    (List.hd r.Soc_tune.Search.points).Soc_tune.Search.key;
  (* The accepted trajectory SSSS -> HSSS -> HHSS improves strictly at
     every step; the cycles are the golden ones below. *)
  check (Alcotest.list Alcotest.int) "strictly improving trajectory" [ 16371; 15384; 12944 ]
    (List.map cycles [ "SSSS"; "HSSS"; "HHSS" ]);
  check Alcotest.string "endpoint" "HHSS/f1024/list/std"
    (Option.get (Soc_tune.Render.winner r)).Soc_tune.Search.key;
  check Alcotest.int "10 evaluations, fewer than exhaustive" 10 r.Soc_tune.Search.evaluated

let test_greedy_endpoint_not_dominated () =
  let points, _ = Lazy.force sweep in
  let last = Option.get (Soc_tune.Render.winner (Lazy.force greedy)) in
  (* No exhaustive point strictly beats the greedy endpoint on latency. *)
  let best_cycles =
    List.fold_left (fun acc p -> min acc (fst (cycles_lut p))) max_int points
  in
  check Alcotest.bool "greedy reaches within 25% of the best latency" true
    (float_of_int last.Soc_tune.Search.cycles <= 1.25 *. float_of_int best_cycles)

(* Property: spec_of never produces a spec whose validation fails, for any
   random signature. *)
let prop_random_partition_specs =
  QCheck.Test.make ~name:"partition specs validate" ~count:50
    (QCheck.make
       (QCheck.Gen.oneofl (List.filter (fun p -> not (P.is_all_sw p)) (P.enumerate ()))))
    (fun p -> Soc_core.Spec.validate (P.spec_of p) = Ok ())

(* ------------------------------------------------------------------ *)
(* Golden cycles                                                       *)
(* ------------------------------------------------------------------ *)

(* Exact cycle counts, threshold and output-image digest of every
   partition at 16x16, in both accelerator modes. The platform is cycle
   accurate: a change that leaves results correct but moves a timeline by
   one cycle must show up here. *)
let golden_points =
  [
    ("rtl", "SSSS", 16371, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "SSSH", 16577, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "SSHS", 19709, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "SSHH", 19884, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "SHSS", 16747, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "SHSH", 16953, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "SHHS", 18781, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "SHHH", 18951, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "HSSS", 15384, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "HSSH", 15590, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "HSHS", 18722, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "HSHH", 18897, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "HHSS", 12944, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "HHSH", 13150, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "HHHS", 14983, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("rtl", "HHHH", 15158, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "SSSS", 16371, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "SSSH", 15338, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "SSHS", 10268, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "SSHH", 9160, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "SHSS", 13622, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "SHSH", 12589, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "SHHS", 6798, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "SHHH", 5690, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "HSSS", 12823, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "HSSH", 11790, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "HSHS", 6720, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "HSHH", 5612, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "HHSS", 9512, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "HHSH", 8479, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "HHHS", 2688, 71, "bc51840998009ebdd15ecf8cb19e7316");
    ("beh", "HHHH", 1580, 71, "bc51840998009ebdd15ecf8cb19e7316");
  ]

let test_golden_cycles () =
  let cache = Soc_farm.Cache.create () in
  let hls = Soc_farm.Cache.hls_engine cache in
  List.iter
    (fun (mode_name, sig_, cycles, threshold, digest) ->
      let mode = if mode_name = "rtl" then `Rtl else `Behavioral in
      let pt =
        Soc_dse.Runner.evaluate ~width:16 ~height:16 ~hls ~mode (P.of_signature sig_)
      in
      let what = mode_name ^ " " ^ sig_ in
      check Alcotest.int (what ^ " cycles") cycles pt.Soc_dse.Runner.cycles;
      check Alcotest.int (what ^ " threshold") threshold pt.Soc_dse.Runner.threshold;
      let pixels = pt.Soc_dse.Runner.output.Soc_apps.Image.pixels in
      check Alcotest.string (what ^ " image")
        digest
        (Digest.to_hex
           (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int pixels))))))
    golden_points

(* The interpreter backend never fast-forwards an idle fabric, so it is
   the oracle for the compiled backend's quiescence skip: every partition
   must measure the same cycles, threshold and image on both. *)
let test_backend_parity () =
  let cache = Soc_farm.Cache.create () in
  let hls = Soc_farm.Cache.hls_engine cache in
  let module Engine = Soc_rtl_compile.Engine in
  let measure_all backend =
    let saved = Engine.default_backend () in
    Engine.set_default_backend backend;
    Fun.protect
      ~finally:(fun () -> Engine.set_default_backend saved)
      (fun () ->
        List.map
          (fun p ->
            let pt = Soc_dse.Runner.evaluate ~width:8 ~height:8 ~hls p in
            (P.signature p, pt.Soc_dse.Runner.cycles, pt.Soc_dse.Runner.threshold,
             pt.Soc_dse.Runner.output.Soc_apps.Image.pixels))
          (P.enumerate ()))
  in
  let saved = Engine.default_backend () in
  let compiled = measure_all Engine.Compiled in
  let interp = measure_all Engine.Interp in
  check Alcotest.bool "default backend restored" true (Engine.default_backend () = saved);
  check Alcotest.int "all 16 partitions" 16 (List.length compiled);
  List.iter2
    (fun (s, c, t, img) (_, c', t', img') ->
      check Alcotest.int (s ^ " cycles") c' c;
      check Alcotest.int (s ^ " threshold") t' t;
      check Alcotest.bool (s ^ " image") true (img = img'))
    compiled interp

let suite =
  [
    ("enumerate covers the space", `Quick, test_enumerate_covers_space);
    ("signature round-trip", `Quick, test_signature_roundtrip);
    ("paper archs as partitions", `Quick, test_paper_archs_as_partitions);
    ("all partition specs validate", `Quick, test_specs_validate);
    ("partition specs match paper archs", `Quick, test_arch_partition_specs_match_paper_archs);
    ("direct-link rule", `Quick, test_direct_link_rule);
    ("hw run grouping", `Quick, test_hw_runs_grouping);
    ("all-software point", `Quick, test_all_sw_point);
    ("every partition bit-exact", `Slow, test_every_partition_is_bit_exact);
    ("behavioral DSE mode", `Quick, test_behavioral_mode_bit_exact);
    ("mixed partition threshold", `Quick, test_mixed_partition_threshold);
    ("exhaustive evaluation count", `Quick, test_exhaustive_counts);
    ("pareto front properties", `Quick, test_pareto_properties);
    ("greedy trajectory", `Quick, test_greedy_descends);
    ("greedy endpoint quality", `Quick, test_greedy_endpoint_not_dominated);
    qtest prop_random_partition_specs;
    ("golden cycles, 16 partitions x 2 modes", `Quick, test_golden_cycles);
    ("compiled = interpreted, 16 partitions", `Quick, test_backend_parity);
  ]
