module Metrics = Fair_obs.Metrics
module Sha256 = Fair_crypto.Sha256

let c_hits = Metrics.counter "service.cache.hits"
let c_misses = Metrics.counter "service.cache.misses"
let c_evictions = Metrics.counter "service.cache.evictions"
let c_disk_hits = Metrics.counter "service.cache.disk_hits"
let c_disk_corrupt = Metrics.counter "service.cache.disk_corrupt"

(* Classic doubly-linked LRU: the table maps key -> node, the list is
   recency-ordered with [head] = most recent.  All mutation happens under
   [lock]; nodes never escape the module. *)
type node = {
  nkey : string;
  nvalue : string;
  mutable prev : node option;  (* towards head (more recent) *)
  mutable next : node option;  (* towards tail (less recent) *)
}

type stats = { hits : int; misses : int; evictions : int; disk_hits : int; entries : int }

type t = {
  capacity : int;
  sdir : string option;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_disk_hits : int;
  lock : Mutex.t;
}

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(capacity = 256) ?dir () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  Option.iter mkdir_p dir;
  { capacity;
    sdir = dir;
    tbl = Hashtbl.create 64;
    head = None;
    tail = None;
    s_hits = 0;
    s_misses = 0;
    s_evictions = 0;
    s_disk_hits = 0;
    lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------- intrusive list ---------------------------- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* Caller holds the lock. *)
let insert t key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some old ->
      unlink t old;
      Hashtbl.remove t.tbl key
  | None -> ());
  let n = { nkey = key; nvalue = value; prev = None; next = None } in
  Hashtbl.replace t.tbl key n;
  push_front t n;
  if Hashtbl.length t.tbl > t.capacity then
    match t.tail with
    | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.nkey;
        t.s_evictions <- t.s_evictions + 1;
        Metrics.incr c_evictions
    | None -> ()

(* ----------------------------- disk tier ----------------------------- *)

(* Keys are hex digests, so they are always safe file names; the extension
   marks the file as a cache entry (an encoded envelope), not a bare
   certificate artifact. *)
let spill_path dir key = Filename.concat dir (key ^ ".entry")

(* Spilled entries are integrity-framed: a 64-hex SHA-256 of the value,
   then the value.  The atomic tmp+rename publish protects against torn
   writes from this process, but not against what the filesystem does to
   the bytes afterwards (truncation, corruption, a stray editor) — and a
   poisoned entry would otherwise be served verbatim, indistinguishable
   from a genuine certificate.  A failed check deletes the file and reads
   as a miss: recompute, re-spill. *)
let digest_len = 64

let envelope value = Sha256.hex_digest value ^ value

let unseal entry =
  if String.length entry < digest_len then None
  else
    let d = String.sub entry 0 digest_len in
    let body = String.sub entry digest_len (String.length entry - digest_len) in
    if String.equal (Sha256.hex_digest body) d then Some body else None

(* Unique tmp names without consulting thread identity: workers may run on
   bare domains, where the [Thread] library is not necessarily live. *)
let tmp_seq = Atomic.make 0

let disk_read t key =
  match t.sdir with
  | None -> None
  | Some dir -> (
      let path = spill_path dir key in
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic -> (
          let raw =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let len = in_channel_length ic in
                try Some (really_input_string ic len) with End_of_file -> None)
          in
          match Option.map unseal raw with
          | Some (Some body) -> Some body
          | Some None ->
              (* Corrupt on disk: drop it so the slot heals on re-spill. *)
              Metrics.incr c_disk_corrupt;
              (try Sys.remove path with Sys_error _ -> ());
              None
          | None -> None))

let disk_write t key value =
  match t.sdir with
  | None -> ()
  | Some dir -> (
      (* Atomic publish: write a unique temp file, then rename over the
         final name, so a reader never observes a torn entry and two
         writers racing on the same key both leave a complete one. *)
      let tmp =
        Filename.concat dir
          (Printf.sprintf ".%s.%d.%d.tmp" key (Unix.getpid ())
             (Atomic.fetch_and_add tmp_seq 1))
      in
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (envelope value));
        Sys.rename tmp (spill_path dir key)
      with Sys_error _ | Unix.Unix_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

(* ------------------------------ public ------------------------------- *)

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some n ->
          unlink t n;
          push_front t n;
          t.s_hits <- t.s_hits + 1;
          Metrics.incr c_hits;
          Some (n.nvalue, `Mem)
      | None -> (
          match disk_read t key with
          | Some value ->
              insert t key value;
              t.s_hits <- t.s_hits + 1;
              t.s_disk_hits <- t.s_disk_hits + 1;
              Metrics.incr c_hits;
              Metrics.incr c_disk_hits;
              Some (value, `Disk)
          | None ->
              t.s_misses <- t.s_misses + 1;
              Metrics.incr c_misses;
              None))

let store t ~key value =
  with_lock t (fun () ->
      insert t key value;
      disk_write t key value)

let stats t =
  with_lock t (fun () ->
      { hits = t.s_hits;
        misses = t.s_misses;
        evictions = t.s_evictions;
        disk_hits = t.s_disk_hits;
        entries = Hashtbl.length t.tbl })
