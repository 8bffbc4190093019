(* Causal span collector. Self-contained (sim does not see the sublayer
   library): spans are opened/closed by whoever holds the tracer, with
   virtual-time stamps supplied by the caller. Finished spans land in a
   bounded ring (oldest evicted first, evictions counted); live spans are
   indexed by id so a span opened on one host can be closed on another
   (cross-host causality without touching any wire format). *)

(* The kill switch is process-wide and read from every shard domain, so
   it is atomic; each shard owns a private tracer instance, so the rings
   themselves are never shared across domains. *)
let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type span = {
  sp_id : int;
  sp_trace : int;  (* 0 = no causal lineage known *)
  sp_parent : int; (* parent span id; 0 = root *)
  sp_track : string;
  sp_sublayer : string;
  sp_name : string;
  sp_start : float;
  mutable sp_end : float;
  mutable sp_detail : string;
}

type t = {
  ring : span option array; (* finished spans, oldest at [head] *)
  mutable head : int;
  mutable len : int;
  mutable recorded : int;
  mutable next_id : int;
  mutable next_trace : int;
  live : (int, span) Hashtbl.t;
  keys : (string, int) Hashtbl.t;
}

let create ?(capacity = 8192) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  { ring = Array.make capacity None; head = 0; len = 0; recorded = 0;
    next_id = 1; next_trace = 1; live = Hashtbl.create 64;
    keys = Hashtbl.create 64 }

let capacity t = Array.length t.ring
let length t = t.len
let recorded t = t.recorded
let dropped t = t.recorded - t.len

let fresh_trace t =
  let tr = t.next_trace in
  t.next_trace <- tr + 1;
  tr

let start t ~at ~track ~sublayer ?(trace = 0) ?(parent = 0) name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let sp =
    { sp_id = id; sp_trace = trace; sp_parent = parent; sp_track = track;
      sp_sublayer = sublayer; sp_name = name; sp_start = at; sp_end = Float.nan;
      sp_detail = "" }
  in
  Hashtbl.replace t.live id sp;
  id

let push t sp =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    t.ring.(t.head) <- Some sp;
    t.head <- (t.head + 1) mod cap
  end
  else begin
    t.ring.((t.head + t.len) mod cap) <- Some sp;
    t.len <- t.len + 1
  end;
  t.recorded <- t.recorded + 1

let finish t ~at ?detail id =
  match Hashtbl.find_opt t.live id with
  | None -> None
  | Some sp ->
      Hashtbl.remove t.live id;
      sp.sp_end <- at;
      (match detail with Some d -> sp.sp_detail <- d | None -> ());
      push t sp;
      Some sp

let instant t ~at ~track ~sublayer ?(trace = 0) ?(parent = 0) ?(detail = "") name =
  push t
    { sp_id = (let id = t.next_id in t.next_id <- id + 1; id);
      sp_trace = trace; sp_parent = parent; sp_track = track;
      sp_sublayer = sublayer; sp_name = name; sp_start = at; sp_end = at;
      sp_detail = detail }

(* Live spans first; fall back to a newest-first ring scan so lineage
   survives the span finishing. A retransmit of a segment that was
   already delivered (but not yet acked) asks for the trace of a span
   that closed when the first copy arrived — answering [None] here is
   what used to break its lineage. Bounded by the ring, like every other
   lookback in this module. *)
let trace_of t id =
  match Hashtbl.find_opt t.live id with
  | Some sp -> Some sp.sp_trace
  | None ->
      let cap = Array.length t.ring in
      let rec scan i =
        if i >= t.len then None
        else
          match t.ring.((t.head + t.len - 1 - i + cap) mod cap) with
          | Some sp when sp.sp_id = id -> Some sp.sp_trace
          | _ -> scan (i + 1)
      in
      scan 0

(* String-keyed correlation table: a sublayer binds an id (span or trace)
   under a key only it and its peer can reconstruct — e.g. the canonical
   ISN pair plus stream offset — and the peer looks it up on delivery. *)
let bind t key v = Hashtbl.replace t.keys key v
let lookup t key = Hashtbl.find_opt t.keys key
let unbind t key = Hashtbl.remove t.keys key

let spans t =
  let cap = Array.length t.ring in
  List.init t.len (fun i ->
      match t.ring.((t.head + i) mod cap) with
      | Some sp -> sp
      | None -> assert false)

let live_spans t = Hashtbl.fold (fun _ sp acc -> sp :: acc) t.live []

let last t n =
  let all = spans t in
  let len = List.length all in
  if len <= n then all else List.filteri (fun i _ -> i >= len - n) all

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.head <- 0;
  t.len <- 0;
  t.recorded <- 0;
  Hashtbl.reset t.live;
  Hashtbl.reset t.keys

let duration sp =
  if Float.is_nan sp.sp_end then 0. else sp.sp_end -. sp.sp_start

let span_to_string sp =
  Printf.sprintf "%10.6f +%.6f %s/%s %s #%d trace=%d%s%s" sp.sp_start
    (duration sp) sp.sp_track sp.sp_sublayer sp.sp_name sp.sp_id sp.sp_trace
    (if sp.sp_parent = 0 then "" else Printf.sprintf " parent=#%d" sp.sp_parent)
    (if sp.sp_detail = "" then "" else " [" ^ sp.sp_detail ^ "]")

(* --- Chrome trace_event export (chrome://tracing / Perfetto) --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 || Char.code c >= 0x7F ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let us time = int_of_float ((time *. 1e6) +. 0.5)

(* Tracks become processes and sublayers threads, so Perfetto renders one
   swim-lane group per endpoint with one row per sublayer. When
   [clock_sync] is given, every track also carries a ["clock_sync"]
   metadata record naming the same sync domain — all tracks share one
   virtual clock (hosts and shards have no skew in the simulation), and
   the marker states that explicitly so multi-track traces merged from
   several tracers align at t=0 instead of being treated as independent
   clock domains. *)
let chrome_json_of ?clock_sync ?(extra = []) finished =
  let tracks = ref [] in
  let tids = ref [] in
  List.iter
    (fun sp ->
      if not (List.mem sp.sp_track !tracks) then tracks := sp.sp_track :: !tracks;
      let key = (sp.sp_track, sp.sp_sublayer) in
      if not (List.mem key !tids) then tids := key :: !tids)
    finished;
  let tracks = List.sort compare !tracks in
  let tids = List.sort compare !tids in
  let pid_of track =
    let rec go i = function
      | [] -> 0
      | x :: rest -> if x = track then i else go (i + 1) rest
    in
    go 1 tracks
  in
  let tid_of track sublayer =
    let rec go i = function
      | [] -> 0
      | x :: rest -> if x = (track, sublayer) then i else go (i + 1) rest
    in
    go 1 tids
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"traceEvents":[|};
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  List.iter
    (fun track ->
      emit
        (Printf.sprintf
           {|{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":"%s"}}|}
           (pid_of track) (json_escape track)))
    tracks;
  List.iter
    (fun (track, sublayer) ->
      emit
        (Printf.sprintf
           {|{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"%s"}}|}
           (pid_of track) (tid_of track sublayer) (json_escape sublayer)))
    tids;
  (match clock_sync with
  | None -> ()
  | Some sync_id ->
      List.iter
        (fun track ->
          emit
            (Printf.sprintf
               {|{"name":"clock_sync","ph":"c","pid":%d,"tid":0,"ts":0,"args":{"sync_id":"%s","issue_ts":0}}|}
               (pid_of track) (json_escape sync_id)))
        tracks);
  (* Complete events sorted by timestamp, so [ts] is non-decreasing on
     every track (a property the exporter test asserts). *)
  let sorted =
    List.stable_sort
      (fun a b ->
        match compare (us a.sp_start) (us b.sp_start) with
        | 0 -> compare a.sp_id b.sp_id
        | c -> c)
      finished
  in
  List.iter
    (fun sp ->
      emit
        (Printf.sprintf
           {|{"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"name":"%s","cat":"%s","args":{"trace":%d,"span":%d,"parent":%d,"detail":"%s"}}|}
           (pid_of sp.sp_track)
           (tid_of sp.sp_track sp.sp_sublayer)
           (us sp.sp_start)
           (max 0 (us sp.sp_end - us sp.sp_start))
           (json_escape sp.sp_name) (json_escape sp.sp_sublayer) sp.sp_trace
           sp.sp_id sp.sp_parent (json_escape sp.sp_detail)))
    sorted;
  (* Pre-serialised records from other exporters — telemetry counter
     tracks, typically — ride along verbatim. *)
  List.iter emit extra;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_chrome_json ?clock_sync ?extra t =
  chrome_json_of ?clock_sync ?extra (spans t)

(* One tracer per shard, merged post-run: each shard's tracks are
   namespaced under its label and every track gets a clock_sync marker in
   the same sync domain, so Perfetto renders the shards as aligned
   process groups on one timeline. *)
let merged_chrome_json ?(clock_sync = "sim-vclock") ?extra tracers =
  let finished =
    List.concat_map
      (fun (label, t) ->
        List.map (fun sp -> { sp with sp_track = label ^ "/" ^ sp.sp_track })
          (spans t))
      tracers
  in
  chrome_json_of ~clock_sync ?extra finished

(* --- Packet biography: every span of one trace id, as text --- *)

let biography t ~trace =
  let mine =
    List.filter (fun sp -> sp.sp_trace = trace) (spans t)
    @ List.filter (fun sp -> sp.sp_trace = trace) (live_spans t)
  in
  let mine =
    List.sort
      (fun a b ->
        match compare a.sp_start b.sp_start with
        | 0 -> compare a.sp_id b.sp_id
        | c -> c)
      mine
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "trace %d (%d spans):\n" trace (List.length mine));
  List.iter
    (fun sp ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (span_to_string sp);
      if Float.is_nan sp.sp_end then Buffer.add_string buf " (open)";
      Buffer.add_char buf '\n')
    mine;
  Buffer.contents buf

let pp_span fmt sp = Format.pp_print_string fmt (span_to_string sp)
