(** Runs a sublayer (or a whole {!Machine.Stack}) under the discrete-event
    simulator: timers become engine events, [Down] requests go to a
    transmit function (usually a {!Sim.Channel}) and [Up] indications go
    to a delivery callback. *)

type 'timer alloc_spec = {
  al_top : Alloc.cell option;  (** machine that handles [from_above] *)
  al_bottom : Alloc.cell option;  (** machine that handles [from_below] *)
  al_app : Alloc.cell option;  (** the [deliver] excursion above the stack *)
  al_wire : Alloc.cell option;  (** the [transmit] excursion below the stack *)
  al_timer : 'timer -> Alloc.cell option;  (** owner of a firing timer *)
}
(** Where {!Alloc} charges the words allocated at the runtime's own
    seams.  Probe taps inside the stack handle the crossings {e between}
    machines; this spec covers entry (which machine a [from_above],
    [from_below] or timer fire starts in) and the excursions out of the
    stack ([deliver]/[transmit] callbacks). *)

module Make (S : Machine.S) : sig
  type t

  val create :
    Sim.Engine.t ->
    ?alloc:S.timer alloc_spec ->
    transmit:(S.down_req -> unit) ->
    deliver:(S.up_ind -> unit) ->
    S.t ->
    t
  (** [alloc] enables per-sublayer allocation attribution at the
      runtime seams (the hooks are no-ops unless {!Alloc.set_enabled} is
      on). *)

  val state : t -> S.t
  (** Current sublayer state (for assertions and inspection). *)

  val from_above : t -> S.up_req -> unit
  (** Inject an application-level request. *)

  val from_below : t -> S.down_ind -> unit
  (** Inject a message arriving from the wire; wire this as the channel's
      delivery callback. *)

  val halt : t -> unit
  (** Make the runtime inert: cancel every armed timer and turn
      [from_above]/[from_below]/timer fires into no-ops.  The give-up
      path for a stack whose link died underneath it (a tunnel's outer
      connection aborting) — state is kept readable, nothing runs.
      Idempotent. *)

  val halted : t -> bool
  val active_timers : t -> int
end
