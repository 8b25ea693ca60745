(** Word-addressed shared DRAM model (the Zynq DDR).

    Both the GPP and the DMA engines access it. Timing is modelled with a
    first-word latency plus a per-beat streaming rate, matching a DDR
    controller servicing AXI bursts on the Zynq HP ports.

    Storage is sparse: the address space is split into fixed-size pages,
    and a page is allocated on its first write. A word that was never
    written reads 0, as the zero-filled array it replaces did, so a 4M-word
    device costs its page table, not 32 MB, until a program touches it. *)

type t = {
  size : int;
  pages : int array array; (* [||] = never written: reads 0 *)
  first_word_latency : int; (* cycles from burst issue to first beat *)
  beats_per_cycle : int; (* sustained beats per cycle once streaming (>=1) *)
  mutable reads : int;
  mutable writes : int;
}

let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

let create ?(first_word_latency = 18) ?(beats_per_cycle = 1) ~words () =
  {
    size = words;
    pages = Array.make ((words + page_mask) lsr page_bits) [||];
    first_word_latency;
    beats_per_cycle;
    reads = 0;
    writes = 0;
  }

let size t = t.size

let check t addr op =
  if addr < 0 || addr >= t.size then
    invalid_arg (Printf.sprintf "Dram.%s: address %d out of range" op addr)

let read t addr =
  check t addr "read";
  t.reads <- t.reads + 1;
  let page = t.pages.(addr lsr page_bits) in
  if Array.length page = 0 then 0 else page.(addr land page_mask)

let write t addr v =
  check t addr "write";
  t.writes <- t.writes + 1;
  let p = addr lsr page_bits in
  let page =
    match t.pages.(p) with
    | [||] ->
      let page = Array.make page_words 0 in
      t.pages.(p) <- page;
      page
    | page -> page
  in
  page.(addr land page_mask) <- Soc_util.Bits.truncate ~width:32 v

let read_block t ~addr ~len = Array.init len (fun i -> read t (addr + i))

let write_block t ~addr data = Array.iteri (fun i v -> write t (addr + i) v) data

(* Cycles for a DMA-style burst transfer of [len] beats. *)
let burst_cycles t ~len =
  if len <= 0 then 0 else t.first_word_latency + ((len + t.beats_per_cycle - 1) / t.beats_per_cycle)
