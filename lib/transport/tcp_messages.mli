(** A message-mode transport endpoint: the {!Msg} sublayer composed over
    the {e unchanged} RD/CM/DM stack — the top sublayer of Figure 5
    replaced wholesale (experiment E15). Compare with {!Tcp_sublayered},
    which differs only in its top module. *)

type t

val create :
  Sim.Engine.t ->
  ?ins:Sublayer.Instrument.t ->
  name:string ->
  Config.t ->
  local_port:int ->
  remote_port:int ->
  transmit:(Bitkit.Slice.t -> unit) ->
  events:(Msg.up_ind -> unit) ->
  t

val connect : t -> unit
val listen : t -> unit
val send : t -> string -> unit
(** Send one message (up to 65535 bytes); messages are delivered whole,
    exactly once, but not necessarily in send order. *)

val close : t -> unit
val from_wire : t -> Bitkit.Slice.t -> unit

val halt : t -> unit
(** Make the whole stack inert (link death below). *)

val messages_sent : t -> int
val messages_delivered : t -> int
val finished : t -> bool
