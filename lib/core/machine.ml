type ('up_ind, 'down_req, 'timer) action =
  | Up of 'up_ind
  | Down of 'down_req
  | Set_timer of 'timer * float
  | Cancel_timer of 'timer

let drop counter st =
  Stats.incr counter;
  (st, [])

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

module Nothing = struct
  type t = |

  let absurd (x : t) = match x with _ -> .
end

module Stack
    (Upper : S)
    (Lower : S with type up_req = Upper.down_req and type up_ind = Upper.down_ind) =
struct
  let name = Upper.name ^ "/" ^ Lower.name

  type t = Upper.t * Lower.t
  type up_req = Upper.up_req
  type up_ind = Upper.up_ind
  type down_req = Lower.down_req
  type down_ind = Lower.down_ind
  type timer = (Upper.timer, Lower.timer) Either.t

  (* Route the two sublayers' action streams across the internal boundary.
     An upper [Down r] becomes a lower [handle_up_req]; a lower [Up i]
     becomes an upper [handle_down_ind]. Actions are emitted in causal
     order: effects triggered by an action fire before later sibling
     actions of the same batch. *)
  let rec drain_upper (u, l) acts out =
    match acts with
    | [] -> ((u, l), out)
    | act :: rest -> (
        match act with
        | Up i -> drain_upper (u, l) rest (Up i :: out)
        | Down r ->
            let l, lower_acts = Lower.handle_up_req l r in
            let (u, l), out = drain_lower (u, l) lower_acts out in
            drain_upper (u, l) rest out
        | Set_timer (tm, d) -> drain_upper (u, l) rest (Set_timer (Either.Left tm, d) :: out)
        | Cancel_timer tm -> drain_upper (u, l) rest (Cancel_timer (Either.Left tm) :: out))

  and drain_lower (u, l) acts out =
    match acts with
    | [] -> ((u, l), out)
    | act :: rest -> (
        match act with
        | Up i ->
            let u, upper_acts = Upper.handle_down_ind u i in
            let (u, l), out = drain_upper (u, l) upper_acts out in
            drain_lower (u, l) rest out
        | Down r -> drain_lower (u, l) rest (Down r :: out)
        | Set_timer (tm, d) -> drain_lower (u, l) rest (Set_timer (Either.Right tm, d) :: out)
        | Cancel_timer tm -> drain_lower (u, l) rest (Cancel_timer (Either.Right tm) :: out))

  let finish (st, out) = (st, List.rev out)

  let handle_up_req (u, l) req =
    let u, acts = Upper.handle_up_req u req in
    finish (drain_upper (u, l) acts [])

  let handle_down_ind (u, l) ind =
    let l, acts = Lower.handle_down_ind l ind in
    finish (drain_lower (u, l) acts [])

  let handle_timer (u, l) = function
    | Either.Left tm ->
        let u, acts = Upper.handle_timer u tm in
        finish (drain_upper (u, l) acts [])
    | Either.Right tm ->
        let l, acts = Lower.handle_timer l tm in
        finish (drain_lower (u, l) acts [])
end

module Identity (M : sig
  type msg

  val name : string
end) =
struct
  let name = M.name

  type t = unit
  type up_req = M.msg
  type up_ind = M.msg
  type down_req = M.msg
  type down_ind = M.msg
  type timer = Nothing.t

  let handle_up_req () msg = ((), [ Down msg ])
  let handle_down_ind () msg = ((), [ Up msg ])
  let handle_timer () t = Nothing.absurd t
end

module Probe (M : sig
  type req
  type ind

  val name : string
end) =
struct
  let name = M.name

  type t = { obs_req : M.req -> unit; obs_ind : M.ind -> unit }
  type up_req = M.req
  type up_ind = M.ind
  type down_req = M.req
  type down_ind = M.ind
  type timer = Nothing.t

  let handle_up_req t msg =
    t.obs_req msg;
    (t, [ Down msg ])

  let handle_down_ind t msg =
    t.obs_ind msg;
    (t, [ Up msg ])

  let handle_timer _ t = Nothing.absurd t
end
