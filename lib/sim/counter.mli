(** Named monotonic counters, grouped for reporting.

    A group is a flat registry owned by one component (a NIC, a stack, a
    scheduler); creating a counter twice with the same name returns the
    same counter, so call sites need not thread counter values around. *)

type group
type t

val group : string -> group
(** A fresh, empty group with the given label. *)

val counter : group -> string -> t
(** Find-or-create the counter [name] inside the group. *)

val incr : t -> unit
val add : t -> int -> unit
val value : t -> int
val name : t -> string

val reset_group : group -> unit
(** Zero every counter in the group. *)

val to_list : group -> (string * int) list
(** All counters, sorted by name. *)

val pp : Format.formatter -> group -> unit
(** Multi-line rendering: one ["  name: value"] line per counter. *)
