(** The sublayer abstraction (paper §1, tests T1–T3).

    A sublayer is a pure, event-driven state machine with four typed ports:
    requests from the sublayer above ([up_req]), indications to the sublayer
    above ([up_ind]), requests to the sublayer below ([down_req]) and
    indications from the sublayer below ([down_ind]). The port types are the
    *narrow interface* of test T2: a sublayer can only be composed with
    neighbours whose port types match, and it can only influence the rest of
    the stack through values of those types.

    Transitions are pure ([state -> input -> state * actions]), which lets
    the very same sublayer code run under the discrete-event simulator
    ({!Runtime}) and under the explicit-state model checker ([Mcheck]).

    {!Stack} composes two sublayers into one (test T1: the upper sublayer
    uses and improves the service of the lower). Because composition is by
    module functor over the port types, the stack has no access to either
    sublayer's internal state — test T3's state separation holds by
    construction. *)

type ('up_ind, 'down_req, 'timer) action =
  | Up of 'up_ind
      (** Deliver an indication to the sublayer (or application) above. *)
  | Down of 'down_req
      (** Issue a request to the sublayer (or wire) below. *)
  | Set_timer of 'timer * float
      (** (Re)arm a named timer to fire after a relative delay. *)
  | Cancel_timer of 'timer

val drop : Stats.counter -> 'st -> 'st * ('u, 'd, 't) action list
(** [drop counter st] discards the input being handled: it bumps
    [counter] and leaves [st] with no action. A sublayer that throws a
    PDU or payload away says so here, so no drop is silent. *)

(** Interface implemented by every sublayer. *)
module type S = sig
  val name : string

  type t
  type up_req
  type up_ind
  type down_req
  type down_ind
  type timer

  val handle_up_req : t -> up_req -> t * (up_ind, down_req, timer) action list
  val handle_down_ind : t -> down_ind -> t * (up_ind, down_req, timer) action list
  val handle_timer : t -> timer -> t * (up_ind, down_req, timer) action list
end

(** [Stack (Upper) (Lower)] is the sublayer whose service is [Upper]'s,
    running over [Lower]'s. [Upper]'s down port must match [Lower]'s up
    port. Actions crossing the internal boundary are routed immediately and
    in causal order. *)
module Stack
    (Upper : S)
    (Lower : S with type up_req = Upper.down_req and type up_ind = Upper.down_ind) :
  S
    with type t = Upper.t * Lower.t
     and type up_req = Upper.up_req
     and type up_ind = Upper.up_ind
     and type down_req = Lower.down_req
     and type down_ind = Lower.down_ind
     and type timer = (Upper.timer, Lower.timer) Either.t

(** The empty type, for sublayers with no timers. *)
module Nothing : sig
  type t = |

  val absurd : t -> 'a
end

(** A sublayer with no behaviour of its own, useful as a stack terminator
    or in tests. *)
module Identity (M : sig
  type msg

  val name : string
end) :
  S
    with type t = unit
     and type up_req = M.msg
     and type up_ind = M.msg
     and type down_req = M.msg
     and type down_ind = M.msg
     and type timer = Nothing.t

(** A transparent tap on one interface: forwards everything unchanged,
    calling the observation closures on the way past. Its state is the
    pair of closures, so the same stack type can carry live monitors or
    no-op functions — composition and event counts are identical either
    way. *)
module Probe (M : sig
  type req
  type ind

  val name : string
end) : sig
  type t = { obs_req : M.req -> unit; obs_ind : M.ind -> unit }

  include
    S
      with type t := t
       and type up_req = M.req
       and type up_ind = M.ind
       and type down_req = M.req
       and type down_ind = M.ind
       and type timer = Nothing.t
end
