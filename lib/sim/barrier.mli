(** Reusable sense-reversing barrier synchronizing the sharded
    engine's domains between conservative windows.

    Blocking (futex-parked via [Mutex]/[Condition]), so it degrades
    gracefully when domains outnumber cores. Reusable without a reset:
    consecutive {!await} epochs flip an internal sense flag, which
    makes back-to-back windows safe. *)

type t

val create : int -> t
(** A barrier for the given number of parties.

    @raise Invalid_argument if the count is not positive. *)

val await : t -> unit
(** Arrive at the barrier and block until every party has arrived.
    Every party must call {!await} the same number of times. *)
