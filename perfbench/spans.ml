(* In-memory span recorder for the traced run.

   A span is one timed call into a layer of the program, made from the
   benchmark's own code: name, start, end, the span that caused it and the
   op it belongs to. Spans stay in memory and are written once, at the end,
   in the Chrome [trace_event] format that [Soc_farm.Trace] writes. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 for a root span *)
  tid : int;
  t0 : float;
  t1 : float;
}

type ctx = { op : int; parent : int }

type t = { lock : Mutex.t; mutable spans : span list; next : int Atomic.t }

let create () = { lock = Mutex.create (); spans = []; next = Atomic.make 0 }

let root op = { op; parent = -1 }

(* Record a span that ran from [t0] to [t1]; [id] is one [span] allocated
   before its children ran. *)
let add ?id t (ctx : ctx) ~name ~t0 ~t1 =
  let id = match id with Some id -> id | None -> Atomic.fetch_and_add t.next 1 in
  let s = { id; name; op = ctx.op; parent = ctx.parent; tid = Thread.id (Thread.self ()); t0; t1 } in
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock;
  id

(* Time [f] as span [name]; [f] receives the context its own calls record
   under. The span is kept even when [f] raises. *)
let span t (ctx : ctx) name f =
  let id = Atomic.fetch_and_add t.next 1 in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> ignore (add ~id t ctx ~name ~t0 ~t1:(Unix.gettimeofday ())))
    (fun () -> f { ctx with parent = id })

(* Re-home the job spans of a [Soc_farm.Trace] collector under [ctx]:
   [epoch] is the absolute time of the collector's zero. The farm's
   ["synth"] category is named ["synthesis"] here. *)
let add_farm t ctx ~epoch (ft : Soc_farm.Trace.t) =
  List.iter
    (fun (s : Soc_farm.Trace.span) ->
      let cat = if s.Soc_farm.Trace.cat = "synth" then "synthesis" else s.Soc_farm.Trace.cat in
      ignore
        (add t ctx ~name:("farm." ^ cat) ~t0:(epoch +. s.Soc_farm.Trace.t_start)
           ~t1:(epoch +. s.Soc_farm.Trace.t_end)))
    (Soc_farm.Trace.spans ft)

let spans t =
  Mutex.lock t.lock;
  let l = t.spans in
  Mutex.unlock t.lock;
  List.rev l

(* Length of the union of [ivs], each clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   child spans cover. Returns (span, self seconds). *)
let self_times t =
  let all = spans t in
  let children = Hashtbl.create 256 in
  List.iter
    (fun (s : span) -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    all;
  List.map
    (fun (s : span) ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    all

(* Total self seconds per span name. *)
let self_by_name t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : span), self) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times t);
  tbl

(* Total (inclusive) seconds of the spans named [name]. *)
let total t name =
  List.fold_left (fun acc (s : span) -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0.0 (spans t)

let to_chrome_json t =
  let all = spans t in
  let epoch = List.fold_left (fun acc (s : span) -> min acc s.t0) infinity all in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i (s : span) ->
      if i > 0 then Buffer.add_char buf ',';
      let cat = match String.index_opt s.name '.' with Some k -> String.sub s.name 0 k | None -> s.name in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
           (Soc_tune.Render.json_escape s.name) (Soc_tune.Render.json_escape cat) s.tid
           ((s.t0 -. epoch) *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.op s.id s.parent))
    all;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* [span] when tracing, a plain call otherwise: untraced runs pay nothing. *)
let opt t ctx name f = match t with None -> f ctx | Some t -> span t ctx name f
