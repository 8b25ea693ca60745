type span = {
  name : string;
  cat : string;
  worker : int;
  t_start : float;
  t_end : float;
  attempt : int;
  outcome : string;
}

type t = {
  epoch : float;
  lock : Mutex.t;
  mutable recorded : span list;
  counters : (string, int) Hashtbl.t;
}

let create () =
  { epoch = Unix.gettimeofday (); lock = Mutex.create (); recorded = []; counters = Hashtbl.create 16 }

let now t = Unix.gettimeofday () -. t.epoch

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add_span t span = locked t (fun () -> t.recorded <- span :: t.recorded)

let add t name n =
  locked t (fun () ->
      Hashtbl.replace t.counters name (n + Option.value ~default:0 (Hashtbl.find_opt t.counters name)))

let incr t name = add t name 1

let max_gauge t name n =
  locked t (fun () ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
      if n > cur then Hashtbl.replace t.counters name n)

let spans t =
  locked t (fun () ->
      List.sort (fun a b -> compare (a.t_start, a.name) (b.t_start, b.name)) t.recorded)

let counters t =
  locked t (fun () ->
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters []))

let phase_seconds t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let d = s.t_end -. s.t_start in
      Hashtbl.replace tbl s.cat (d +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.cat)))
    (spans t);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

(* Timestamps are microseconds, rounded to 0.1 us. *)
let to_chrome_json t =
  let open Soc_util.Json in
  let us seconds = Num (Float.round (seconds *. 1e7) /. 10.0) in
  let int n = Num (float_of_int n) in
  let span s =
    Obj
      [ ("name", Str s.name); ("cat", Str s.cat); ("ph", Str "X"); ("pid", int 1);
        ("tid", int s.worker); ("ts", us s.t_start); ("dur", us (s.t_end -. s.t_start));
        ("args", Obj [ ("attempt", int s.attempt); ("outcome", Str s.outcome) ]) ]
  in
  let counter (name, v) =
    Obj
      [ ("name", Str name); ("ph", Str "C"); ("pid", int 1); ("tid", int 0); ("ts", int 0);
        ("args", Obj [ ("value", int v) ]) ]
  in
  to_string
    (Obj
       [ ("traceEvents", Arr (List.map span (spans t) @ List.map counter (counters t)));
         ("displayTimeUnit", Str "ms") ])

let save t path = Soc_util.Atomic_io.write_file path (to_chrome_json t)

let counter_table t =
  let tbl =
    Soc_util.Table.create ~title:"farm counters" [ "counter"; "value" ]
      ~aligns:[ Soc_util.Table.Left; Soc_util.Table.Right ]
  in
  List.iter (fun (k, v) -> Soc_util.Table.add_row tbl [ k; string_of_int v ]) (counters t);
  List.iter
    (fun (cat, s) -> Soc_util.Table.add_row tbl [ "seconds." ^ cat; Printf.sprintf "%.3f" s ])
    (phase_seconds t);
  tbl
