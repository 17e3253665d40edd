module Dls = Domain.DLS

(* One mutex guards registration, the per-instrument cell lists, and
   snapshots.  It is never held while user code runs; recording never takes
   it (except the one-time cell allocation on a domain's first touch of an
   instrument). *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* ------------------------------------------------------------------ *)
(* Counters *)

type ccell = { c_domain : int; mutable c_count : int }

type counter = {
  c_name : string;
  c_ix : int;  (* registration index: this counter's cell in a [Scope] *)
  c_cells : ccell list ref;  (* guarded by [lock]; newest first *)
  c_key : ccell Dls.key;  (* this domain's cell, allocated on first use *)
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 16

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let cells = ref [] in
          let key =
            Dls.new_key (fun () ->
                let cell = { c_domain = Domain_id.get (); c_count = 0 } in
                Mutex.lock lock;
                cells := cell :: !cells;
                Mutex.unlock lock;
                cell)
          in
          let c = { c_name = name; c_ix = Scope.slot (); c_cells = cells; c_key = key } in
          Hashtbl.add counters name c;
          c)

let add c n =
  if Atomic.get on then begin
    let cell = Dls.get c.c_key in
    cell.c_count <- cell.c_count + n;
    Scope.add c.c_ix n
  end

let incr c = add c 1

(* ------------------------------------------------------------------ *)
(* Gauges *)

type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_value = 0.0; g_set = false } in
          Hashtbl.add gauges name g;
          g)

let set_gauge g v =
  if Atomic.get on then begin
    g.g_value <- v;
    g.g_set <- true
  end

(* ------------------------------------------------------------------ *)
(* Histograms *)

type hcell = { h_domain : int; h_counts : int array (* len = buckets + 1; last = overflow *) }

type histogram = {
  h_name : string;
  h_bounds : float array;
  h_cells : hcell list ref;
  h_key : hcell Dls.key;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram ~buckets name =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: empty buckets";
  Array.iteri
    (fun i b -> if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: buckets not strictly increasing")
    buckets;
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h ->
          if h.h_bounds <> buckets then
            invalid_arg ("Metrics.histogram: " ^ name ^ " re-registered with different buckets");
          h
      | None ->
          let bounds = Array.copy buckets in
          let cells = ref [] in
          let key =
            Dls.new_key (fun () ->
                let cell =
                  { h_domain = Domain_id.get ();
                    h_counts = Array.make (Array.length bounds + 1) 0 }
                in
                Mutex.lock lock;
                cells := cell :: !cells;
                Mutex.unlock lock;
                cell)
          in
          let h = { h_name = name; h_bounds = bounds; h_cells = cells; h_key = key } in
          Hashtbl.add histograms name h;
          h)

let observe h v =
  if Atomic.get on then begin
    let cell = Dls.get h.h_key in
    let n = Array.length h.h_bounds in
    let i = ref 0 in
    while !i < n && v > h.h_bounds.(!i) do Stdlib.incr i done;
    cell.h_counts.(!i) <- cell.h_counts.(!i) + 1
  end

(* ------------------------------------------------------------------ *)
(* Reset and snapshot *)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> List.iter (fun cell -> cell.c_count <- 0) !(c.c_cells)) counters;
      Hashtbl.iter
        (fun _ g ->
          g.g_value <- 0.0;
          g.g_set <- false)
        gauges;
      Hashtbl.iter
        (fun _ h -> List.iter (fun cell -> Array.fill cell.h_counts 0 (Array.length cell.h_counts) 0) !(h.h_cells))
        histograms)

type hist_snapshot = {
  hbuckets : (float * int) list;
  overflow : int;
  total : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

(* Sums of integers commute, but the contract says domain-index order, so
   keep it literal: sort the cells before folding. *)
let by_domain f cells = List.sort (fun a b -> compare (f a) (f b)) cells

let sorted_by_name tbl read =
  Hashtbl.fold (fun name v acc -> (name, read v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let scoped s =
  locked (fun () -> sorted_by_name counters (fun c -> Scope.count s c.c_ix))
  |> List.filter (fun (_, n) -> n <> 0)

let snapshot () =
  locked (fun () ->
      let counters =
        sorted_by_name counters (fun c ->
            List.fold_left
              (fun acc cell -> acc + cell.c_count)
              0
              (by_domain (fun cell -> cell.c_domain) !(c.c_cells)))
      in
      let gauges =
        Hashtbl.fold (fun name g acc -> if g.g_set then (name, g.g_value) :: acc else acc) gauges []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let histograms =
        sorted_by_name histograms (fun h ->
            let n = Array.length h.h_bounds in
            let sums = Array.make (n + 1) 0 in
            List.iter
              (fun cell -> Array.iteri (fun i c -> sums.(i) <- sums.(i) + c) cell.h_counts)
              (by_domain (fun cell -> cell.h_domain) !(h.h_cells));
            { hbuckets = List.init n (fun i -> (h.h_bounds.(i), sums.(i)));
              overflow = sums.(n);
              total = Array.fold_left ( + ) 0 sums })
      in
      { counters; gauges; histograms })
