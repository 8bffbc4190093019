type 'timer alloc_spec = {
  al_top : Alloc.cell option;
  (* machine that handles [from_above] *)
  al_bottom : Alloc.cell option;
  (* machine that handles [from_below] *)
  al_app : Alloc.cell option;
  (* the [deliver] excursion above the stack *)
  al_wire : Alloc.cell option;
  (* the [transmit] excursion below the stack *)
  al_timer : 'timer -> Alloc.cell option;
  (* owner of a firing timer *)
}

module Make (S : Machine.S) = struct
  type t = {
    engine : Sim.Engine.t;
    transmit : S.down_req -> unit;
    deliver : S.up_ind -> unit;
    alloc : S.timer alloc_spec option;
    mutable st : S.t;
    (* Arming a timer that is already set re-arms it, so at most one event
       per timer value is live. Timers are few per endpoint; an assoc list
       with structural equality is simplest and deterministic. *)
    mutable timers : (S.timer * Sim.Engine.handle) list;
    (* A halted runtime is inert: the link below it died (tunnel abort),
       so nothing must re-arm timers or transmit into the void. *)
    mutable halted : bool;
  }

  let create engine ?alloc ~transmit ~deliver st =
    { engine; alloc; transmit; deliver; st; timers = []; halted = false }

  let state t = t.st

  let cancel_timer t tm =
    match List.assoc_opt tm t.timers with
    | None -> ()
    | Some handle ->
        Sim.Engine.cancel handle;
        t.timers <- List.remove_assoc tm t.timers

  (* Bracket an excursion out of the stack (app delivery, wire transmit)
     or into it (entry points below) so allocation between two probe
     crossings lands on the machine actually running. Reentrancy — e.g.
     delivery calling back into [from_above] — nests via the cell stack;
     [Alloc.bracket] keeps it balanced when a step or callback raises. *)
  let excurse t cell f x =
    match t.alloc with
    | None -> f x
    | Some _ -> Alloc.bracket cell (fun () -> f x)

  let rec apply t acts = List.iter (apply_one t) acts

  and apply_one t = function
    | Machine.Up ind ->
        excurse t (match t.alloc with Some a -> a.al_app | None -> None) t.deliver ind
    | Machine.Down req ->
        excurse t (match t.alloc with Some a -> a.al_wire | None -> None) t.transmit req
    | Machine.Cancel_timer tm -> cancel_timer t tm
    | Machine.Set_timer (tm, delay) ->
        cancel_timer t tm;
        let handle = Sim.Engine.schedule t.engine ~after:delay (fun () -> fire t tm) in
        t.timers <- (tm, handle) :: t.timers

  and fire t tm =
    t.timers <- List.remove_assoc tm t.timers;
    if t.halted then ()
    else
    let body () =
      let st, acts = S.handle_timer t.st tm in
      t.st <- st;
      apply t acts
    in
    match t.alloc with
    | None -> body ()
    | Some a -> Alloc.bracket (a.al_timer tm) body

  let entry t cell step x =
    if t.halted then ()
    else
      let body () =
        let st, acts = step t.st x in
        t.st <- st;
        apply t acts
      in
      match t.alloc with
      | None -> body ()
      | Some a -> Alloc.bracket (cell a) body

  let from_above t req = entry t (fun a -> a.al_top) S.handle_up_req req
  let from_below t ind = entry t (fun a -> a.al_bottom) S.handle_down_ind ind

  let halt t =
    if not t.halted then begin
      t.halted <- true;
      List.iter (fun (_, handle) -> Sim.Engine.cancel handle) t.timers;
      t.timers <- []
    end

  let halted t = t.halted
  let active_timers t = List.length t.timers
end
