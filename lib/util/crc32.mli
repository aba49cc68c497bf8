(** CRC-32 (IEEE 802.3 polynomial), used for the partial-segment summary
    and data checksums (the paper's [ss_sumsum] and [ss_datasum]). *)

val bytes : ?off:int -> ?len:int -> Bytes.t -> int
(** Checksum of a byte range; the result is a 32-bit unsigned value. *)

val string : string -> int

val combine : ?off:int -> ?len:int -> int -> Bytes.t -> int
(** Feeds more data (a byte range, by default all of [b]) into a
    running checksum, so multi-block data sums can be computed without
    concatenation; [bytes] of the empty range is 0, the starting
    value. *)
