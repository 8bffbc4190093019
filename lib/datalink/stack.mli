(** Composition of the four data-link sublayers of Figure 2 into a running
    endpoint: error recovery / error detection / framing / line coding,
    over a raw bit channel. Every mechanism is chosen independently —
    the replaceability the paper claims for sublayered designs. *)

type spec = {
  arq : (module Arq.S);
  arq_config : Arq.config;
  detector : Detector.t;
  framer : Framer.t;
  linecode : Linecode.t;
}

val default_spec : spec
(** Go-back-N (window 8), CRC-32, HDLC framing, NRZ. *)

type endpoint

val send : endpoint -> string -> unit
(** Queue one payload for reliable delivery to the peer. *)

val from_wire : endpoint -> Bitkit.Bitseq.t -> unit
(** Inject received symbols (wire this to a channel's [deliver]). *)

val arq_stats : endpoint -> Arq.stats
(** Snapshot of the endpoint's ARQ counters (fresh record per call). *)

val is_idle : endpoint -> bool

val gave_up : endpoint -> bool
(** The ARQ sender exhausted its retries and declared the link dead —
    or the {!Sublayer.Link} under an {!over_link} endpoint died. *)

val endpoint :
  Sim.Engine.t ->
  ?ins:Sublayer.Instrument.t ->
  name:string ->
  spec ->
  transmit:(Bitkit.Bitseq.t -> unit) ->
  deliver:(string -> unit) ->
  endpoint
(** [ins] bundles the instruments ({!Sublayer.Instrument}). With
    [ins.stats], the four sublayers register their counters under
    scopes [arq], [detector], [framer] and [linecode] (level-prefixed
    when nested). With [ins.tracer], each sublayer opens spans on its
    track [name]: ARQ "flight" spans with retransmission children,
    instant markers for the stateless codecs below. With [ins.monitors],
    conformance probes on the ARQ⇄detector, detector⇄framer and
    framer⇄linecode interfaces check every crossing (keyed by [name]).
    With [ins.telemetry] (and [ins.stats]), the registry becomes a
    sampling source under [name] and {!Sublayer.Alloc} cells are
    installed at every seam. With [ins.pool], the detector protects
    frames in loaned arena slots (see {!Layers.Error_detection.make});
    the engine drains deferred releases after every event. *)

val over_link :
  Sim.Engine.t ->
  ?ins:Sublayer.Instrument.t ->
  name:string ->
  spec ->
  link:Bitkit.Bitseq.t Sublayer.Link.t ->
  deliver:(string -> unit) ->
  endpoint
(** Like {!endpoint}, but sitting on a {!Sublayer.Link}: transmits into
    it, attaches itself as its receiver, and treats link death as ARQ
    give-up ({!gave_up} turns true, the stack is halted). *)

(** A ready-made duplex link between two endpoints over impaired
    channels, accumulating what each side delivered. *)
type link = {
  a : endpoint;
  b : endpoint;
  a_to_b : Bitkit.Bitseq.t Sim.Channel.t;
  b_to_a : Bitkit.Bitseq.t Sim.Channel.t;
  received_at_a : string Queue.t;
  received_at_b : string Queue.t;
}

val link :
  Sim.Engine.t ->
  ?stats_a:Sublayer.Stats.registry ->
  ?stats_b:Sublayer.Stats.registry ->
  ?tracer:Sim.Tracer.t ->
  ?monitors:Monitor.Runtime.t ->
  ?telemetry:Sim.Telemetry.t ->
  ?pool:Bitkit.Pool.t ->
  Sim.Channel.config ->
  spec ->
  link
(** The two endpoints get tracks ["A"] and ["B"] on the shared [tracer]
    (and, when [pool] is given, share one arena — both run on the same
    engine, so single-domain pooling is sound). *)

val transfer :
  Sim.Engine.t ->
  ?deadline:float ->
  link ->
  string list ->
  string list
(** [transfer engine link payloads] sends every payload from [a], runs the
    simulation until [a] is idle (or [deadline]), and returns what [b]
    received, in order. *)
