(* A moving estimate of what a query costs, per (kind, experiment).

   Admission control wants to know "how much work is already queued", and
   queue depth is a terrible proxy: one 50 ms cold search outweighs a
   thousand 61 µs cache probes.  This module keeps an exponentially
   weighted moving average of observed cold-compute wall times keyed by
   (kind, uppercased experiment) — the same normalization the content
   address uses, so "e2" and "E2" share an estimate just as they share a
   cache entry.

   Estimates only ever feed admission (shed-or-admit) decisions; they are
   never read on the certificate path, so a wildly wrong estimate can cost
   throughput but can never move a certified byte. *)

module Json = Fairness.Json

type t = {
  alpha : float;
  default_s : float;
  floor_s : float;
  lock : Mutex.t;
  tbl : (string, float) Hashtbl.t;
}

let key ~kind ~experiment = kind ^ "/" ^ String.uppercase_ascii experiment

let create ?(alpha = 0.2) ?(default_s = 0.05) ?(floor_s = 1e-5) () =
  if not (alpha > 0. && alpha <= 1.) then invalid_arg "Costmodel.create: alpha not in (0,1]";
  if not (default_s > 0. && Float.is_finite default_s) then
    invalid_arg "Costmodel.create: default_s <= 0";
  if not (floor_s > 0. && Float.is_finite floor_s) then
    invalid_arg "Costmodel.create: floor_s <= 0";
  { alpha; default_s; floor_s; lock = Mutex.create (); tbl = Hashtbl.create 16 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The floor does double duty: it keeps a burst of near-zero observations
   (a cache-warm benchmark loop) from collapsing the estimate to where a
   cost budget admits unbounded depth, and it rejects the non-finite and
   negative garbage a corrupted qlog line could carry. *)
let clamp t v = if Float.is_finite v && v > t.floor_s then v else t.floor_s

let observe t ~kind ~experiment ~wall_s =
  let v = clamp t wall_s in
  let k = key ~kind ~experiment in
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | None -> Hashtbl.replace t.tbl k v
      | Some prev -> Hashtbl.replace t.tbl k (((1. -. t.alpha) *. prev) +. (t.alpha *. v)))

let estimate t ~kind ~experiment =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl (key ~kind ~experiment) with
      | Some v -> v
      | None -> t.default_s)

let snapshot t =
  with_lock t (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

(* ---------------------------- qlog seeding ---------------------------- *)

(* Warm-start from a previous run's `serve --qlog` JSONL file, so a
   restarted daemon does not relearn every cost from the default.  Only
   cold-tier lines carry a real compute time: cache hits and coalesced
   riders would teach the model that searches are free.  Wholly
   best-effort: a missing file, a truncated tail line (the previous
   process died mid-write), or foreign JSON all just contribute nothing.
   Returns the number of events actually folded in. *)
let seed_from_file t path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> 0
  | raw ->
      let count = ref 0 in
      String.split_on_char '\n' raw
      |> List.iter (fun line ->
             if line <> "" then
               match Json.of_string line with
               | Result.Error _ -> ()
               | Ok j -> (
                   let str k =
                     match Result.bind (Json.member k j) Json.to_str with
                     | Ok s -> s
                     | Result.Error _ -> ""
                   in
                   match Result.bind (Json.member "wall_s" j) Json.to_float with
                   | Result.Error _ -> ()
                   | Ok wall_s ->
                       if str "tier" = "cold" && str "kind" <> "" && str "experiment" <> ""
                       then begin
                         observe t ~kind:(str "kind") ~experiment:(str "experiment") ~wall_s;
                         incr count
                       end));
      !count
