(** RPC payload-size and popularity mixes.

    The paper leans on the cloud-scale RPC characterization
    (Seemakhupt et al., SOSP'23 [23]): "the great majority of RPC
    requests and responses are small". {!small_rpc_sizes} reproduces
    that shape: a lognormal body centred near 200 B with a thin heavy
    tail into the tens of KiB. *)

val small_rpc_sizes : Dist.t
(** Argument-bytes distribution with p50 ≈ 200 B, p99 in the KiB range,
    and a 2% tail reaching 16–64 KiB (which exercises the DMA
    fallback). *)

val sample_args : Sim.Rng.t -> schema:Rpc.Schema.t -> size:Dist.t ->
  Rpc.Value.t
(** A conforming argument value whose encoded size tracks a draw from
    [size]. *)

type pick = { service_idx : int; method_id : int }

val uniform_pick : Sim.Rng.t -> services:int -> pick
val zipf_pick : Sim.Rng.t -> services:int -> s:float -> pick
(** Popularity-skewed service selection (method 0). *)
