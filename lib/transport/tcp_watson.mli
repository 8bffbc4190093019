(** The sublayered TCP with Watson timer-based connection management:
    [Osr / Rd / Cm_timer / Dm] — the same stack as {!Tcp_sublayered} with
    only the CM module swapped (experiment E10, whole-sublayer case). *)

type t

val create :
  Sim.Engine.t ->
  ?ins:Sublayer.Instrument.t ->
  ?idle_timeout:float ->
  name:string ->
  Config.t ->
  local_port:int ->
  remote_port:int ->
  transmit:(Bitkit.Slice.t -> unit) ->
  events:(Iface.app_ind -> unit) ->
  t
(** [idle_timeout] defaults to 6 s of virtual time (above the maximum RTO, so loss recovery is never mistaken for a dead peer). *)

val connect : t -> unit
val listen : t -> unit
val write : t -> string -> unit

val read : t -> int -> unit
(** Tell OSR the application consumed [n] delivered bytes (flow-control
    credit; {!Host} calls this automatically unless auto-read is off). *)

val close : t -> unit
val from_wire : t -> Bitkit.Slice.t -> unit

val halt : t -> unit
(** Make the whole stack inert (link death below). *)

val cm_phase : t -> string
val stream_finished : t -> bool

val factory : ?idle_timeout:float -> unit -> Host.factory
