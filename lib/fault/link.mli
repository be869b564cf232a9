(** A fault injector wrapping one directed frame link.

    Sits between a sender's [Frame.t -> unit] and the receiver's
    ingress: applies the scripted and probabilistic faults of a
    {!Plan.link} and counts everything it does. Delivery of unfaulted
    frames is synchronous (no added latency — the wire model underneath
    still prices serialization); reordered and duplicated frames are
    re-scheduled through the engine with a seeded extra delay.

    All RNG draws are guarded on the corresponding probability being
    positive: a {!Plan.perfect_link} injector is pass-through and
    consumes no randomness. *)

type t

val create :
  Sim.Engine.t ->
  plan:Plan.link ->
  rng:Sim.Rng.t ->
  deliver:(Net.Frame.t -> unit) ->
  unit ->
  t

val send : t -> Net.Frame.t -> unit

val flip_checksummed : Sim.Rng.t -> ip_payload_len:int -> Net.Slice.t -> unit
(** Flip one byte of an encoded frame within the region the receiver's
    IPv4/UDP checksums cover (never the UDP checksum field itself,
    whose zeroing would read as "checksum absent"), so the existing
    validation rejects the frame deterministically. Shared with the
    DMA-corruption injector in [Nic.Dma_nic]. *)

(** Counters (all monotonic): *)

val seen : t -> int
val delivered : t -> int
val dropped : t -> int  (** probabilistic drops *)

val duplicated : t -> int
val reordered : t -> int

val counters : t -> prefix:string -> (string * int) list
(** All counters as [(prefix ^ name, value)] pairs. Besides the ones
    above: [scripted_drops] ([drop_nth] drops), [corrupt_rejected]
    (corrupted frames the receiver-side checksums rejected; these never
    reach [deliver]) and [corrupt_delivered] (corrupted frames that
    survived validation — kept as a tripwire; with {!flip_checksummed}
    this stays 0). *)
