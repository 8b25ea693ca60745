(** Word-addressed shared DRAM model (the Zynq DDR), accessed by the GPP
    and the DMA engines. Timing: first-word latency plus a sustained
    per-beat rate, like a DDR controller servicing AXI bursts. Storage is
    sparse: pages are allocated on first write, and a word never written
    reads 0. *)

type t = private {
  size : int;
  pages : int array array;
  first_word_latency : int;
  beats_per_cycle : int;
  mutable reads : int;
  mutable writes : int;
}

val create : ?first_word_latency:int -> ?beats_per_cycle:int -> words:int -> unit -> t

val size : t -> int

val read : t -> int -> int
(** Raises [Invalid_argument] out of range; 0 for a word never written. *)

val write : t -> int -> int -> unit
(** Stores the low 32 bits. Raises [Invalid_argument] out of range. *)

val read_block : t -> addr:int -> len:int -> int array
val write_block : t -> addr:int -> int array -> unit

val burst_cycles : t -> len:int -> int
(** Cycles for a DMA-style burst of [len] beats. *)
