(** The content-addressed certificate cache.

    Maps a content address ({!Proto.cache_key} — a hex SHA-256 covering the
    question {e and} the code version) to the opaque byte string that
    answers it.  Because the key covers everything that could move the
    bytes, a hit can be served verbatim: repeated fairness queries are O(1)
    string lookups instead of minutes of Monte-Carlo.

    Two tiers.  A bounded in-memory LRU holds the hot set; a spill
    directory (optional) holds everything ever stored, one file per key
    ([<key>.entry], written atomically via rename).  Stores write through
    to disk, so eviction is a pure memory drop and a server restart starts
    warm.  A disk hit is promoted back into memory.

    Disk integrity.  Spilled entries are framed as a 64-hex SHA-256 of the
    value followed by the value; a read that fails the check (truncated,
    garbled, or otherwise tampered-with file) deletes the file, counts
    under [service.cache.disk_corrupt], and reads as a {e miss} — the
    caller recomputes and the re-spill heals the slot.  A corrupt spill
    can therefore cost one recomputation but can never serve poisoned
    bytes or wedge a connection.

    Thread-safe (all operations take the cache lock; values are immutable
    strings).  Counted under [service.cache.{hits,misses,evictions}] (plus
    [service.cache.disk_hits]) when metrics are enabled, mirrored in
    {!stats} whether or not the registry is on. *)

type t

type stats = {
  hits : int;  (** successful lookups (memory or disk) *)
  misses : int;
  evictions : int;  (** memory-LRU drops (the entry stays on disk) *)
  disk_hits : int;  (** subset of [hits] that had to touch the spill dir *)
  entries : int;  (** current in-memory population *)
}

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [capacity] (default 256) bounds the in-memory LRU; [dir] enables disk
    spill (created, with parents, if missing).
    @raise Invalid_argument if [capacity < 1]. *)

val find : t -> string -> (string * [ `Mem | `Disk ]) option
(** Lookup by content address, with the tier that answered (what the wide
    query log reports as the request's cache tier); promotes to
    most-recently-used. *)

val store : t -> key:string -> string -> unit
(** Insert (or overwrite) an entry; may evict the least-recently-used
    in-memory entry.  Write-through to [dir] when spill is enabled. *)

val stats : t -> stats
