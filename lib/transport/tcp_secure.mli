(** The sublayered TCP with the {!Rec} security sublayer inserted between
    CM and DM: [Osr / Rd / Cm / Rec / Dm]. Every module except the new
    one is byte-identical to {!Tcp_sublayered}'s — the "insert a
    sublayer" experiment (paper §5's QUIC record-layer observation). *)

type t

val create :
  Sim.Engine.t ->
  ?ins:Sublayer.Instrument.t ->
  key:string ->
  name:string ->
  Config.t ->
  local_port:int ->
  remote_port:int ->
  transmit:(Bitkit.Slice.t -> unit) ->
  events:(Iface.app_ind -> unit) ->
  t
(** [ins] bundles the instruments exactly as in
    {!Tcp_sublayered.create}; the extra [rec.*] scope rides along. *)

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

val stream_finished : t -> bool
val records_sent : t -> int
val auth_failures : t -> int

val factory : key:string -> Host.factory
(** Both ends must share [key] (32 bytes). *)

val demo_key : string
(** A fixed 32-byte key for examples and tests. *)
