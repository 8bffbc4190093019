(** The sublayered TCP endpoint: {!Osr} / {!Rd} / {!Cm} / {!Dm} composed
    with {!Sublayer.Machine.Stack} (Figure 5). One value of {!t} is one
    end of one connection; multi-connection port demultiplexing lives in
    {!Host}. *)

type t

val create :
  Sim.Engine.t ->
  ?ins:Sublayer.Instrument.t ->
  name:string ->
  Config.t ->
  local_port:int ->
  remote_port:int ->
  transmit:(Bitkit.Slice.t -> unit) ->
  events:(Iface.app_ind -> unit) ->
  t
(** [transmit] sends a wire segment; [events] receives application-level
    indications ([`Established], [`Data], ...). [ins] bundles the
    instruments ({!Sublayer.Instrument}). With [ins.stats], each
    sublayer registers its counters under its own (level-namespaced)
    scope: [osr.*], [rd.*], [cm.*], [dm.*] plus [cc.*] for the
    congestion controller. With [ins.tracer], every sublayer opens
    causal spans on it (track = [name]), with per-sublayer sojourn
    histograms recorded into [ins.stats] as well. With [ins.monitors],
    conformance probes on the OSR⇄RD, RD⇄CM and CM⇄DM interfaces check
    every crossing against the {!Monitor.Specs} contracts under the key
    [name]. With [ins.telemetry] (and [ins.stats]), {!Sublayer.Alloc}
    cells are installed at every T2 seam so enabling allocation
    attribution charges [<sub>.gc.minor_words] per sublayer (plus
    [app.*]/[wire.*] for the excursions outside the stack). With
    [ins.pool], OSR stages out-of-order segments in arena slots and DM
    emits outgoing segments into them (see {!Osr.initial}, {!Dm.make}). *)

val connect : t -> unit
val listen : t -> unit
val write : t -> string -> unit

val read : t -> int -> unit
(** Tell OSR the application consumed [n] delivered bytes (flow-control
    credit; {!Host} calls this automatically unless auto-read is off). *)

val close : t -> unit
val from_wire : t -> Bitkit.Slice.t -> unit

val halt : t -> unit
(** Make the whole stack inert (see {!Sublayer.Runtime.Make.halt}) —
    the link below it died. *)

(** Inspection (used by tests and benches). *)

val cm_phase : t -> string
val rd_stats : t -> Rd.stats
val osr_stats : t -> Osr.stats
val cwnd : t -> float
val peer_window_of : t -> int
val srtt : t -> float option
val outstanding : t -> int
val unsent_bytes : t -> int
val stream_finished : t -> bool
val cc_name : t -> string
