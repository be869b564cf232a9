(** The NIC flow/dispatch table.

    Registered in advance by the kernel (and indirectly by the
    application when it exports a service): maps a UDP destination port
    to everything the NIC needs to dispatch without software — the
    service definition (schemas for hardware unmarshaling), per-method
    code pointers and the data pointer. *)

type entry = {
  service : Rpc.Interface.service_def;
  code_ptrs : int64 array;  (** Indexed by method id. *)
  data_ptr : int64;
}

type t

val create : unit -> t

val bind : t -> port:int -> entry -> unit
(** @raise Invalid_argument if the port is already bound. *)

val lookup : t -> port:int -> entry option

val port_of_service : t -> service_id:int -> int option
(** Reverse lookup: the UDP port a service is bound to. *)

val code_ptr : entry -> method_id:int -> int64
(** @raise Invalid_argument for an unknown method id. *)
