module Dls = Domain.DLS

type phase =
  | Span of int
  | Instant

type event = {
  name : string;
  cat : string;
  tid : int;
  ph : phase;
  ts_ns : int;
  args : (string * string) list;
}

let on = Atomic.make false
let enabled () = Atomic.get on

(* Per-domain buffer: a reversed cons list (append = one alloc, no
   resizing), bounded so a traced long run truncates instead of OOMing.
   [b_lock] exists because the certificate service records spans from
   systhreads, and every systhread of a domain shares that domain's
   buffer: without it two reader threads could race the cons and lose
   events.  The lock is only ever touched while tracing is enabled — the
   disabled fast path (an atomic load and a branch) is unchanged — and is
   per-buffer, so domains never contend with each other. *)
type buf = {
  b_domain : int;
  b_lock : Mutex.t;
  mutable b_events : event list;
  mutable b_len : int;
  mutable b_dropped : int;
}

let lock = Mutex.create ()
let bufs : buf list ref = ref []
let max_events = Atomic.make 4_000_000

let buf_key =
  Dls.new_key (fun () ->
      let b =
        { b_domain = Domain_id.get ();
          b_lock = Mutex.create ();
          b_events = [];
          b_len = 0;
          b_dropped = 0 }
      in
      Mutex.lock lock;
      bufs := b :: !bufs;
      Mutex.unlock lock;
      b)

let enable ?max_events_per_domain () =
  (match max_events_per_domain with
  | Some m -> Atomic.set max_events (max 1 m)
  | None -> ());
  Atomic.set on true

let disable () = Atomic.set on false

let clear () =
  Mutex.lock lock;
  List.iter
    (fun b ->
      Mutex.lock b.b_lock;
      b.b_events <- [];
      b.b_len <- 0;
      b.b_dropped <- 0;
      Mutex.unlock b.b_lock)
    !bufs;
  Mutex.unlock lock

(* A request's trace args reach spans recorded deep inside the engine, on
   any domain, through its {!Scope}. *)
let record e =
  let b = Dls.get buf_key in
  let scoped = Scope.args () in
  let e = if scoped = [] then e else { e with args = e.args @ scoped } in
  Mutex.lock b.b_lock;
  if b.b_len >= Atomic.get max_events then b.b_dropped <- b.b_dropped + 1
  else begin
    b.b_events <- e :: b.b_events;
    b.b_len <- b.b_len + 1
  end;
  Mutex.unlock b.b_lock

let emit_span ?(cat = "app") ?(args = []) name ~ts_ns ~dur_ns =
  if Atomic.get on then
    record { name; cat; tid = Domain_id.get (); ph = Span dur_ns; ts_ns; args }

let with_span ?(cat = "app") ?(args = []) name fn =
  if not (Atomic.get on) then fn ()
  else begin
    let t0 = Clock.now_ns () in
    match fn () with
    | r ->
        record
          { name; cat; tid = Domain_id.get (); ph = Span (Clock.now_ns () - t0); ts_ns = t0; args };
        r
    | exception e ->
        record
          { name; cat; tid = Domain_id.get (); ph = Span (Clock.now_ns () - t0); ts_ns = t0; args };
        raise e
  end

let instant ?(cat = "app") ?(args = []) name =
  if Atomic.get on then
    record { name; cat; tid = Domain_id.get (); ph = Instant; ts_ns = Clock.now_ns (); args }

(* Under [lock]; each buffer additionally under its own lock so a snapshot
   concurrent with writers sees consistent (len, events) pairs. *)
let collect per_buf =
  Mutex.lock lock;
  let bs = List.sort (fun a b -> compare a.b_domain b.b_domain) !bufs in
  let evs =
    List.concat_map
      (fun b ->
        Mutex.lock b.b_lock;
        let r = per_buf b in
        Mutex.unlock b.b_lock;
        r)
      bs
  in
  Mutex.unlock lock;
  evs

let export () = collect (fun b -> List.rev b.b_events)

let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

let recent ~limit () =
  if limit <= 0 then []
  else
    (* [b_events] is most-recent-first, so the last [limit] events of a
       domain are its first [limit] cons cells — no full-buffer walk. *)
    collect (fun b -> List.rev (take limit b.b_events))

let dropped () =
  Mutex.lock lock;
  let d = List.fold_left (fun acc b -> acc + b.b_dropped) 0 !bufs in
  Mutex.unlock lock;
  d
