(** Point-to-point Ethernet link model.

    Serialization delay is wire bytes (plus preamble, FCS, and
    inter-packet gap) over the configured rate; frames queue FIFO when
    the transmitter is busy; propagation delay is added per frame. *)

type t

val create :
  Sim.Engine.t -> gbps:float -> propagation:Sim.Units.duration ->
  ?loss:float -> ?corruption:float -> ?seed:int ->
  deliver:(Frame.t -> unit) -> unit -> t
(** A unidirectional link delivering frames to [deliver].

    [loss] (default 0) drops each frame independently with the given
    probability. [corruption] (default 0) flips one random wire byte
    with the given probability; frames whose corrupted bytes no longer
    parse (almost all — the IPv4/UDP checksums catch them) are dropped
    and counted, the rare survivors are delivered corrupted, exactly as
    a real link would. [seed] makes the impairments reproducible. *)

val serialization_delay : gbps:float -> bytes:int -> Sim.Units.duration
(** Time for [bytes] plus the 24-byte per-frame preamble, SFD, FCS and
    inter-packet gap at the given rate. *)

val transmit : t -> Frame.t -> unit
(** Enqueue a frame for transmission now. *)

val frames_sent : t -> int
val frames_lost : t -> int
val frames_corrupted : t -> int
(** Corrupted frames that failed to parse and were dropped. *)
