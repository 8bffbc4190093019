(** The monolithic TCP baseline — one PCB record whose fields are read and
    written by every function, in the style of lwIP/BSD [tcp_input]
    (paper §2.3 and §4.2).

    Functionally comparable to {!Tcp_sublayered} (3-way handshake,
    cumulative acks, RTO with Jacobson/Karels estimation, fast
    retransmit, pluggable congestion window arithmetic, flow control,
    FIN teardown) but deliberately structured the way the paper
    criticises: demultiplexing checks, connection-state transitions,
    reliability bookkeeping and window updates are interleaved inside
    [from_wire], all mutating the shared PCB. The entanglement metric of
    experiment E9 is computed over this module's field-access matrix, and
    experiment E12 benchmarks it against the sublayered stack. It speaks
    the standard {!Wire} format, so it doubles as the interop peer for
    the {!Shim} (experiment E4). *)

type t

val create :
  Sim.Engine.t ->
  Config.t ->
  local_port:int ->
  remote_port:int ->
  transmit:(string -> unit) ->
  events:(Iface.app_ind -> unit) ->
  t

val connect : t -> unit
val listen : t -> unit
val write : t -> string -> unit

val read : t -> int -> unit
(** Flow-control credit: the application consumed [n] delivered bytes. *)

val close : t -> unit
val from_wire : t -> string -> unit

val state_name : t -> string
val stream_finished : t -> bool
val retransmissions : t -> int
val segments_sent : t -> int
val cwnd : t -> float
val srtt : t -> float option

val factory : Host.factory
(** Drop this into {!Host} to run monolithic endpoints behind the same
    socket API as the sublayered stack. *)
