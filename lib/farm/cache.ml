module Diag = Soc_util.Diag

type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  stale : int;
  quarantined : int;
  evictions : int;
}

type tape_stats = { tape_hits : int; tape_disk_hits : int; tape_stores : int }

type t = {
  lock : Mutex.t;
  mem : (string, Soc_hls.Engine.accel) Hashtbl.t;
  tape_mem : (string, Soc_rtl_compile.Csim.compiled) Hashtbl.t;
  disk_dir : string option;
  max_bytes : int option;
  fsync : bool;
  protected_ : (string, unit) Hashtbl.t;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable stale : int;
  mutable quarantined : int;
  mutable evictions : int;
  mutable tape_hits : int;
  mutable tape_disk_hits : int;
  mutable tape_stores : int;
  mutable stale_noted : bool;
  mutable diag_log : Diag.t list; (* reverse chronological *)
}

let create ?disk_dir ?max_mb ?(fsync = false) () =
  {
    lock = Mutex.create ();
    mem = Hashtbl.create 32;
    tape_mem = Hashtbl.create 32;
    disk_dir;
    max_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_mb;
    fsync;
    protected_ = Hashtbl.create 8;
    hits = 0;
    disk_hits = 0;
    misses = 0;
    stores = 0;
    stale = 0;
    quarantined = 0;
    evictions = 0;
    tape_hits = 0;
    tape_disk_hits = 0;
    tape_stores = 0;
    stale_noted = false;
    diag_log = [];
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stats t =
  locked t (fun () ->
      { hits = t.hits; disk_hits = t.disk_hits; misses = t.misses; stores = t.stores;
        stale = t.stale; quarantined = t.quarantined; evictions = t.evictions })

let size t = locked t (fun () -> Hashtbl.length t.mem)

let diags t = locked t (fun () -> List.rev t.diag_log)

let log_diag t d = t.diag_log <- d :: t.diag_log (* lock held *)

let protect t key = locked t (fun () -> Hashtbl.replace t.protected_ (Chash.to_hex key) ())

(* ------------------------------------------------------------------ *)
(* Disk layer                                                          *)
(* ------------------------------------------------------------------ *)

(* On-disk entry layout: one text header line followed by the raw payload
   (Marshal of the accel). The header carries everything needed to read
   the payload back defensively:

     soc-accel <format_version> <payload digest> <payload length>\n

   The digest covers the payload bytes, so bit rot, torn writes and
   truncation are all detected before Marshal ever sees the data. *)

let header_magic = "soc-accel"

let entry_ext = ".accel"

let entry_path dir key = Filename.concat dir (Chash.to_hex key ^ entry_ext)

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let quarantine_dir dir = Filename.concat dir "quarantine"

let encode_entry payload =
  Printf.sprintf "%s %s %s %d\n" header_magic Chash.format_version
    (Chash.to_hex (Chash.digest payload))
    (String.length payload)
  ^ payload

(* What reading an entry file can yield. [Absent] only at the lookup
   layer; decode distinguishes corruption (quarantine) from staleness
   (re-synthesize, note once). *)
type decoded =
  | Good of string (* payload *)
  | Stale_version of string (* the version found *)
  | Corrupt of string (* reason, for the diagnostic *)

let decode_entry (raw : string) : decoded =
  match String.index_opt raw '\n' with
  | None -> Corrupt "no header line (truncated?)"
  | Some nl -> (
    let header = String.sub raw 0 nl in
    match String.split_on_char ' ' header with
    | [ magic; version; digest; len ] -> (
      if magic <> header_magic then Corrupt "bad magic"
      else
        match int_of_string_opt len with
        | None -> Corrupt "unreadable payload length"
        | Some len ->
          let have = String.length raw - nl - 1 in
          if have <> len then
            Corrupt (Printf.sprintf "truncated payload (%d of %d bytes)" have len)
          else
            let payload = String.sub raw (nl + 1) len in
            if Chash.to_hex (Chash.digest payload) <> digest then
              Corrupt "payload digest mismatch"
            else if version <> Chash.format_version then Stale_version version
            else Good payload)
    | _ -> Corrupt "malformed header")

(* Move a corrupt entry aside rather than deleting it: the quarantine
   directory preserves the evidence for post-mortems, and the entry can
   never be read as a hit again. *)
let quarantine_file ~dir path =
  let qdir = quarantine_dir dir in
  ensure_dir qdir;
  let dst = Filename.concat qdir (Filename.basename path) in
  (try Sys.remove dst with _ -> ());
  Sys.rename path dst;
  dst

type read_outcome =
  | R_absent
  | R_hit of Soc_hls.Engine.accel
  | R_stale
  | R_quarantined of string (* reason *)

(* Lock held. *)
let disk_read t key =
  match t.disk_dir with
  | None -> R_absent
  | Some dir -> (
    let path = entry_path dir key in
    if not (Sys.file_exists path) then R_absent
    else
      let raw = try Some (In_channel.with_open_bin path In_channel.input_all) with _ -> None in
      match Option.map decode_entry raw with
      | None -> R_absent (* unreadable file: treat as missing *)
      | Some (Good payload) -> (
        match (Marshal.from_string payload 0 : Soc_hls.Engine.accel) with
        | accel ->
          (* LRU bookkeeping: a read refreshes the entry's mtime. *)
          (try Unix.utimes path 0.0 0.0 with _ -> ());
          R_hit accel
        | exception _ ->
          (* The digest matched but Marshal rejected it — a writer bug or
             cross-compiler artifact; quarantine like any corruption. *)
          (try ignore (quarantine_file ~dir path) with _ -> (try Sys.remove path with _ -> ()));
          R_quarantined "payload does not deserialize")
      | Some (Stale_version v) ->
        t.stale <- t.stale + 1;
        if not t.stale_noted then begin
          t.stale_noted <- true;
          log_diag t
            (Diag.info ~code:"IO402" ~subject:(Filename.basename path)
               (Printf.sprintf
                  "disk cache entries use format %S (current %S); re-synthesizing \
                   (reported once per run)"
                  v Chash.format_version))
        end;
        R_stale
      | Some (Corrupt reason) ->
        let code =
          if String.length reason >= 9 && String.sub reason 0 9 = "truncated" then "IO401"
          else "IO400"
        in
        let moved =
          try Some (quarantine_file ~dir path)
          with _ ->
            (try Sys.remove path with _ -> ());
            None
        in
        t.quarantined <- t.quarantined + 1;
        log_diag t
          (Diag.warning ~code ~subject:(Filename.basename path)
             (Printf.sprintf "corrupt cache artifact (%s): %s; will re-synthesize" reason
                (match moved with
                | Some dst -> "quarantined to " ^ dst
                | None -> "removed")));
        R_quarantined reason)

(* ------------------------------------------------------------------ *)
(* LRU size cap                                                        *)
(* ------------------------------------------------------------------ *)

let is_entry name = Filename.check_suffix name entry_ext

(* Lock held. Evict oldest-mtime entries until the disk layer fits the
   cap, skipping keys protected by a live journal. *)
let enforce_cap t =
  match (t.disk_dir, t.max_bytes) with
  | Some dir, Some cap when Sys.file_exists dir ->
    let entries =
      Array.to_list (Sys.readdir dir)
      |> List.filter_map (fun name ->
             if not (is_entry name) then None
             else
               let path = Filename.concat dir name in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                 Some (path, name, st_size, st_mtime)
               | _ -> None
               | exception _ -> None)
    in
    let total = List.fold_left (fun acc (_, _, sz, _) -> acc + sz) 0 entries in
    if total > cap then begin
      let by_age =
        List.sort (fun (_, _, _, a) (_, _, _, b) -> compare (a : float) b) entries
      in
      let excess = ref (total - cap) in
      List.iter
        (fun (path, name, sz, _) ->
          let key_hex = Filename.chop_suffix name entry_ext in
          if !excess > 0 && not (Hashtbl.mem t.protected_ key_hex) then begin
            match Sys.remove path with
            | () ->
              excess := !excess - sz;
              t.evictions <- t.evictions + 1;
              log_diag t
                (Diag.info ~code:"IO410" ~subject:name
                   (Printf.sprintf "evicted (LRU, disk cache over %d MiB cap)"
                      (cap / (1024 * 1024))))
            | exception _ -> ()
          end)
        by_age
    end
  | _ -> ()

(* Lock held. *)
let disk_write t key accel =
  match t.disk_dir with
  | None -> ()
  | Some dir -> (
    try
      ensure_dir dir;
      let payload = Marshal.to_string accel [] in
      Soc_util.Atomic_io.write_file ~fsync:t.fsync (entry_path dir key) (encode_entry payload);
      t.stores <- t.stores + 1;
      enforce_cap t
    with _ -> () (* the disk layer is best-effort *))

(* ------------------------------------------------------------------ *)
(* Compiled-tape layer                                                 *)
(* ------------------------------------------------------------------ *)

(* Compiled simulator tapes are artifacts too: keyed by the netlist's
   content hash ({!Soc_rtl_compile.Tape.netlist_key}), serialized through
   the same verified header (digest-checked, quarantined on corruption,
   version-gated) so a warm farm or serve round instantiates simulators
   without lowering a single netlist. The payload is the tape's own
   versioned text format — never Marshal. *)

let tape_ext = ".tape"

let tape_path dir key = Filename.concat dir (key ^ tape_ext)

let is_tape name = Filename.check_suffix name tape_ext

(* Lock held. Decode + parse a tape entry defensively, quarantining
   anything the digest or the parser rejects. *)
let tape_disk_read t key =
  match t.disk_dir with
  | None -> None
  | Some dir -> (
    let path = tape_path dir key in
    if not (Sys.file_exists path) then None
    else
      let raw = try Some (In_channel.with_open_bin path In_channel.input_all) with _ -> None in
      match Option.map decode_entry raw with
      | None -> None
      | Some (Good payload) -> (
        match Soc_rtl_compile.Tape.deserialize payload with
        | tape ->
          (try Unix.utimes path 0.0 0.0 with _ -> ());
          Some tape
        | exception _ ->
          (try ignore (quarantine_file ~dir path) with _ -> (try Sys.remove path with _ -> ()));
          t.quarantined <- t.quarantined + 1;
          log_diag t
            (Diag.warning ~code:"IO400" ~subject:(Filename.basename path)
               "corrupt compiled-tape artifact (does not parse); quarantined; will re-lower");
          None)
      | Some (Stale_version _) ->
        t.stale <- t.stale + 1;
        None
      | Some (Corrupt reason) ->
        let code =
          if String.length reason >= 9 && String.sub reason 0 9 = "truncated" then "IO401"
          else "IO400"
        in
        (try ignore (quarantine_file ~dir path) with _ -> (try Sys.remove path with _ -> ()));
        t.quarantined <- t.quarantined + 1;
        log_diag t
          (Diag.warning ~code ~subject:(Filename.basename path)
             (Printf.sprintf "corrupt compiled-tape artifact (%s); quarantined; will re-lower"
                reason));
        None)

let find_tape t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tape_mem key with
      | Some tape ->
        t.tape_hits <- t.tape_hits + 1;
        Some tape
      | None -> (
        match tape_disk_read t key with
        | Some tape ->
          t.tape_disk_hits <- t.tape_disk_hits + 1;
          let entry = Soc_rtl_compile.Csim.compiled tape in
          Hashtbl.replace t.tape_mem key entry;
          Some entry
        | None -> None))

(* Overwrites: the engine stores on a miss, or over an entry it rejected
   on load — which must be replaced in memory and on disk alike. *)
let store_tape t ~key entry =
  locked t (fun () ->
      Hashtbl.replace t.tape_mem key entry;
      t.tape_stores <- t.tape_stores + 1;
      match t.disk_dir with
      | None -> ()
      | Some dir -> (
        try
          ensure_dir dir;
          let tape = Soc_rtl_compile.Csim.compiled_tape entry in
          let payload = Soc_rtl_compile.Tape.serialize tape in
          Soc_util.Atomic_io.write_file ~fsync:t.fsync (tape_path dir key) (encode_entry payload)
        with _ -> ()))

let tape_stats t =
  locked t (fun () ->
      { tape_hits = t.tape_hits; tape_disk_hits = t.tape_disk_hits; tape_stores = t.tape_stores })

(* Route the compiled simulator backend's lookups through this cache:
   every netlist compiled from now on lands here, and warm rounds skip
   lowering entirely. *)
let enable_tape_cache t =
  Soc_rtl_compile.Engine.install_tape_cache
    (Some
       {
         Soc_rtl_compile.Engine.tc_find = (fun ~key -> find_tape t ~key);
         tc_store = (fun ~key tape -> store_tape t ~key tape);
       })

(* ------------------------------------------------------------------ *)
(* Lookup / memoized synthesis                                         *)
(* ------------------------------------------------------------------ *)

(* Lock held: memory first, then verified disk. *)
let find_locked t key =
  match Hashtbl.find_opt t.mem (Chash.to_hex key) with
  | Some a ->
    t.hits <- t.hits + 1;
    Some a
  | None -> (
    match disk_read t key with
    | R_hit a ->
      t.disk_hits <- t.disk_hits + 1;
      Hashtbl.replace t.mem (Chash.to_hex key) a;
      Some a
    | R_absent | R_stale | R_quarantined _ -> None)

(* Counts hits (memory and disk) but not misses: the find-then-synthesize
   pattern would otherwise count every cold lookup twice. *)
let find t key = locked t (fun () -> find_locked t key)

let store t key accel =
  locked t (fun () ->
      if not (Hashtbl.mem t.mem (Chash.to_hex key)) then begin
        Hashtbl.replace t.mem (Chash.to_hex key) accel;
        disk_write t key accel
      end)

(* When a tape cache is routed through us (see [enable_tape_cache]), pay
   the netlist-lowering cost at synthesis time: by the time anything
   instantiates this accelerator — this process or a later warm round —
   the compiled tape is already an artifact and lowering is skipped. *)
let precompile_tape (a : Soc_hls.Engine.accel) =
  try Soc_rtl_compile.Engine.precompile a.Soc_hls.Engine.fsmd.Soc_hls.Fsmd.netlist
  with _ -> ()

let synthesize t ~config kernel =
  let key = Chash.kernel ~config kernel in
  match locked t (fun () -> find_locked t key) with
  | Some a ->
    precompile_tape a;
    (`Hit, a)
  | None ->
    (* Synthesize outside the lock: concurrent HLS of *different* kernels
       must proceed in parallel. Two racing misses on the same key both
       synthesize (deterministic result; first store wins) — the farm's job
       graph dedups keys upfront so this only happens for ad-hoc users. *)
    let accel = Soc_hls.Engine.synthesize ~config kernel in
    locked t (fun () -> t.misses <- t.misses + 1);
    store t key accel;
    precompile_tape accel;
    (`Miss, accel)

let hls_engine t : Soc_core.Flow.hls_engine =
 fun ~config kernel ->
  match synthesize t ~config kernel with
  | `Hit, a -> (`Reused, a)
  | `Miss, a -> (`Synthesized, a)

let render_stats t =
  let s = stats t in
  Printf.sprintf
    "cache: %d hit%s, %d disk hit%s, %d miss%s, %d stored, %d resident%s%s%s"
    s.hits (if s.hits = 1 then "" else "s")
    s.disk_hits (if s.disk_hits = 1 then "" else "s")
    s.misses (if s.misses = 1 then "" else "es")
    s.stores (size t)
    (if s.stale > 0 then Printf.sprintf ", %d stale" s.stale else "")
    (if s.quarantined > 0 then Printf.sprintf ", %d quarantined" s.quarantined else "")
    (if s.evictions > 0 then Printf.sprintf ", %d evicted" s.evictions else "")
  ^
  let ts = tape_stats t in
  if ts.tape_hits + ts.tape_disk_hits + ts.tape_stores = 0 then ""
  else
    Printf.sprintf "; tapes: %d hit%s, %d disk hit%s, %d stored"
      ts.tape_hits (if ts.tape_hits = 1 then "" else "s")
      ts.tape_disk_hits (if ts.tape_disk_hits = 1 then "" else "s")
      ts.tape_stores

(* ------------------------------------------------------------------ *)
(* Offline fsck                                                        *)
(* ------------------------------------------------------------------ *)

type fsck_report = {
  fsck_checked : int;
  fsck_ok : int;
  fsck_quarantined : string list;
  fsck_stale : string list;
  fsck_orphans : string list;
  fsck_diags : Diag.t list;
}

let fsck ~dir =
  let checked = ref 0 and ok = ref 0 in
  let quarantined = ref [] and stale = ref [] and orphans = ref [] and diags = ref [] in
  let note d = diags := d :: !diags in
  (if Sys.file_exists dir && Sys.is_directory dir then
     Array.iter
       (fun name ->
         let path = Filename.concat dir name in
         if Soc_util.Atomic_io.is_temp name then begin
           (try Sys.remove path with _ -> ());
           orphans := name :: !orphans;
           note
             (Diag.info ~code:"IO404" ~subject:name
                "orphaned temp file from an interrupted commit; removed")
         end
         else if is_tape name then begin
           incr checked;
           let raw = try Some (In_channel.with_open_bin path In_channel.input_all) with _ -> None in
           match Option.map decode_entry raw with
           | Some (Good payload) -> (
             match Soc_rtl_compile.Tape.deserialize payload with
             | _ -> incr ok
             | exception _ ->
               quarantined := name :: !quarantined;
               (try ignore (quarantine_file ~dir path) with _ -> (try Sys.remove path with _ -> ()));
               note
                 (Diag.warning ~code:"IO400" ~subject:name
                    "compiled tape does not parse; quarantined"))
           | Some (Stale_version v) ->
             stale := name :: !stale;
             (try Sys.remove path with _ -> ());
             note
               (Diag.info ~code:"IO402" ~subject:name
                  (Printf.sprintf "stale format %S (current %S); removed" v
                     Chash.format_version))
           | Some (Corrupt reason) ->
             let code =
               if String.length reason >= 9 && String.sub reason 0 9 = "truncated" then "IO401"
               else "IO400"
             in
             quarantined := name :: !quarantined;
             (try ignore (quarantine_file ~dir path) with _ -> (try Sys.remove path with _ -> ()));
             note
               (Diag.warning ~code ~subject:name
                  (Printf.sprintf "corrupt compiled tape (%s); quarantined" reason))
           | None ->
             quarantined := name :: !quarantined;
             (try ignore (quarantine_file ~dir path) with _ -> (try Sys.remove path with _ -> ()));
             note (Diag.warning ~code:"IO400" ~subject:name "unreadable compiled tape; quarantined")
         end
         else if is_entry name then begin
           incr checked;
           let raw = try Some (In_channel.with_open_bin path In_channel.input_all) with _ -> None in
           match Option.map decode_entry raw with
           | None ->
             quarantined := name :: !quarantined;
             (try ignore (quarantine_file ~dir path) with _ -> (try Sys.remove path with _ -> ()));
             note (Diag.warning ~code:"IO400" ~subject:name "unreadable artifact; quarantined")
           | Some (Good payload) -> (
             (* the digest matched; make sure the payload also deserializes *)
             match (Marshal.from_string payload 0 : Soc_hls.Engine.accel) with
             | _ -> incr ok
             | exception _ ->
               quarantined := name :: !quarantined;
               (try ignore (quarantine_file ~dir path) with _ -> (try Sys.remove path with _ -> ()));
               note
                 (Diag.warning ~code:"IO400" ~subject:name
                    "artifact does not deserialize; quarantined"))
           | Some (Stale_version v) ->
             stale := name :: !stale;
             (try Sys.remove path with _ -> ());
             note
               (Diag.info ~code:"IO402" ~subject:name
                  (Printf.sprintf "stale format %S (current %S); removed" v
                     Chash.format_version))
           | Some (Corrupt reason) ->
             let code =
               if String.length reason >= 9 && String.sub reason 0 9 = "truncated" then "IO401"
               else "IO400"
             in
             quarantined := name :: !quarantined;
             (try ignore (quarantine_file ~dir path) with _ -> (try Sys.remove path with _ -> ()));
             note
               (Diag.warning ~code ~subject:name
                  (Printf.sprintf "corrupt artifact (%s); quarantined" reason))
         end)
       (Sys.readdir dir));
  {
    fsck_checked = !checked;
    fsck_ok = !ok;
    fsck_quarantined = List.rev !quarantined;
    fsck_stale = List.rev !stale;
    fsck_orphans = List.rev !orphans;
    fsck_diags = List.rev !diags;
  }
