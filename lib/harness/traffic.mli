(** Frame construction for simulated clients. *)

val server_mac : Net.Mac_addr.t
(** [02:00:00:00:00:01]: the default server's MAC. *)

val server_ip : Net.Ip_addr.t
(** [10.0.0.1]: the default server's IP. A stack with no configured
    address uses this identity and {!server_mac} as its own. *)

val client_endpoint : ?idx:int -> unit -> Net.Frame.endpoint
(** A synthetic client NIC identity ([idx] varies MAC/IP/port). *)

val server_endpoint : port:int -> Net.Frame.endpoint
(** The server's identity on the given UDP service port. *)

val request_frame :
  rpc_id:int64 -> service_id:int -> method_id:int -> port:int ->
  ?client:Net.Frame.endpoint -> Rpc.Value.t -> Net.Frame.t
(** A complete request frame from client to server carrying the encoded
    arguments. *)

val inject :
  Recorder.t -> Driver.t -> rpc_id:int64 -> service_id:int ->
  method_id:int -> port:int -> ?client:Net.Frame.endpoint -> Rpc.Value.t ->
  unit
(** Stamp the recorder and deliver the frame to the driver's ingress. *)
