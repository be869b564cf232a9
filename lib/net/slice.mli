(** Zero-copy view into a [bytes] buffer.

    A slice is a (buffer, offset, length) triple: the unit the packet
    hot path passes around instead of [Bytes.sub] copies. The record is
    exposed so parsers and checksums can work on [base] directly with
    explicit bounds; treat the fields as read-only. Slices alias their
    buffer — a slice over a {!Pool} buffer is only valid until the
    buffer is released. *)

type t = private { base : bytes; off : int; len : int }

val make : bytes -> off:int -> len:int -> t
(** View of [base[off, off+len)].
    @raise Invalid_argument if the range is out of bounds. *)

val of_bytes : bytes -> t
(** View of a whole buffer (no copy). *)

val of_string : string -> t
(** Copies the string into a fresh buffer (strings are immutable). *)

val empty : t
val length : t -> int
val is_empty : t -> bool

val get : t -> int -> char
(** Byte at slice-relative index. *)

val sub : t -> off:int -> len:int -> t
(** Narrower view into the same buffer (no copy). *)

val to_bytes : t -> bytes
(** Copy out — the only allocating escape hatch. *)

val to_string : t -> string

val blit : t -> bytes -> dst_off:int -> unit
(** Copy the slice's contents into [dst] at [dst_off]. *)

val equal : t -> t -> bool
(** Content equality, no allocation. *)

val is_prefix_of : t -> bytes -> bool
(** True when the slice's contents equal a prefix of [b]. *)

val pp : Format.formatter -> t -> unit
