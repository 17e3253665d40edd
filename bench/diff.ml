(* Compare two BENCH_mc.json snapshots and fail loudly on regressions.

     dune exec bench/diff.exe -- OLD.json NEW.json

   For every Bechamel kernel present in both snapshots, and for the named
   Monte-Carlo throughput fields (trials/s and speedup), a change worse
   than 25% prints a WARN row and a change worse than 100% (a 2x cliff)
   exits nonzero — slower for ns/op rows, lower for throughput rows.  Fields that are missing from either side, or null
   (e.g. the Monte-Carlo speedup on a degraded single-core host), are
   skipped with a note rather than treated as regressions: snapshots from
   different schema versions stay comparable on their common subset.

   The two-tier threshold is calibrated to what this gate is for: catching
   the 2x cliffs that follow an accidental deopt.  Individual Bechamel
   rows on a busy (especially single-core) host have been observed to
   jitter by 50%+ between back-to-back runs of identical code, so a hard
   25% gate would mostly litigate noise; 25% stays as the visibility
   line, 2x is the failure line. *)

module J = Fairness.Json

let warn_threshold = 0.25
let fail_threshold = 1.0

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let load path =
  let ic = try open_in_bin path with Sys_error e -> die "bench-diff: %s" e in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.of_string raw with
  | Ok j -> j
  | Error e -> die "bench-diff: %s: parse error: %s" path e

(* Descend a path of object members; None when any hop is missing or the
   leaf is not a finite number (null speedup, absent section...). *)
let num_at path j =
  let rec go path j =
    match path with
    | [] -> ( match J.to_float j with Ok v when Float.is_finite v -> Some v | _ -> None)
    | k :: rest -> ( match J.member k j with Ok j' -> go rest j' | Error _ -> None)
  in
  go path j

let kernels j =
  match Result.bind (J.member "kernels" j) J.to_list with
  | Error _ -> []
  | Ok rows ->
      List.filter_map
        (fun row ->
          match
            ( Result.bind (J.member "name" row) J.to_str,
              Result.bind (J.member "ns_per_op" row) J.to_float )
          with
          | Ok name, Ok ns when Float.is_finite ns -> Some (name, ns)
          | _ -> None)
        rows

let regressions = ref 0
let warnings = ref 0
let compared = ref 0

(* [dir] is the bad direction: [`Up] for latencies (bigger is worse),
   [`Down] for throughputs. *)
let check ~label ~dir old_v new_v =
  incr compared;
  let frac =
    match dir with
    | `Up -> (new_v -. old_v) /. old_v  (* fraction slower *)
    | `Down -> (old_v -. new_v) /. old_v  (* fraction less throughput *)
  in
  if old_v > 0.0 && frac > fail_threshold then begin
    incr regressions;
    Printf.printf "REGRESSION %-52s %14.4g -> %-14.4g (%+.0f%%)\n" label old_v new_v
      (100.0 *. (new_v -. old_v) /. old_v)
  end
  else if old_v > 0.0 && frac > warn_threshold then begin
    incr warnings;
    Printf.printf "WARN       %-52s %14.4g -> %-14.4g (%+.0f%%)\n" label old_v new_v
      (100.0 *. (new_v -. old_v) /. old_v)
  end

let skip ?(why = "missing or null on one side") label =
  Printf.printf "skip       %-52s (%s)\n" label why

(* [true] when the snapshot says its Monte-Carlo run was degraded (single
   core) — or when the flag is missing/unreadable, which old snapshots
   never are and broken ones might be: err toward skipping. *)
let degraded j =
  match Result.bind (J.member "montecarlo" j) (J.member "degraded") with
  | Ok (J.Bool b) -> b
  | Ok _ | Error _ -> true

(* The parallel-leg fields carry no signal on a degraded host: the
   "parallel" timing is the sequential path racing itself.  Comparing one
   degraded and one real snapshot would report machine shape, not a code
   regression, so those rows are skipped whenever either side is degraded
   (the sequential leg stays comparable). *)
let parallel_leg = [ [ "montecarlo"; "par_trials_per_sec" ]; [ "montecarlo"; "speedup" ] ]

(* Purely informational rows: printed for visibility, never counted as a
   warning or a regression.  The search leg's spend is deterministic in
   (budget, seed), so any drift there is a change in the racer; its wall
   time is a single run. *)
let informational_fields =
  [ [ "search"; "paired"; "spent" ];
    [ "search"; "paired"; "seconds" ] ]

let info ~label old_v new_v =
  Printf.printf "info       %-52s %14.4g -> %-14.4g (informational)\n" label old_v new_v

let throughput_fields =
  [ [ "montecarlo"; "seq_trials_per_sec" ];
    [ "montecarlo"; "par_trials_per_sec" ];
    [ "montecarlo"; "speedup" ] ]

let () =
  let old_path, new_path =
    match Sys.argv with
    | [| _; o; n |] -> (o, n)
    | _ -> die "usage: %s OLD.json NEW.json" Sys.argv.(0)
  in
  let old_j = load old_path and new_j = load new_path in
  Printf.printf "bench-diff: %s -> %s (warn >%.0f%%, fail >%.0f%%)\n\n" old_path new_path
    (100.0 *. warn_threshold) (100.0 *. fail_threshold);
  let old_k = kernels old_j in
  List.iter
    (fun (name, new_ns) ->
      match List.assoc_opt name old_k with
      | Some old_ns -> check ~label:name ~dir:`Up old_ns new_ns
      | None -> skip name)
    (kernels new_j);
  let any_degraded = degraded old_j || degraded new_j in
  List.iter
    (fun path ->
      let label = String.concat "." path in
      if any_degraded && List.mem path parallel_leg then
        skip ~why:"degraded (single-core) run on one side — no signal" label
      else
        match (num_at path old_j, num_at path new_j) with
        | Some o, Some n -> check ~label ~dir:`Down o n
        | _ -> skip label)
    throughput_fields;
  List.iter
    (fun path ->
      let label = String.concat "." path in
      match (num_at path old_j, num_at path new_j) with
      | Some o, Some n -> info ~label o n
      | _ -> skip ~why:"missing on one side (informational)" label)
    informational_fields;
  Printf.printf "\n%d field(s) compared, %d warning(s), %d regression(s)\n" !compared !warnings
    !regressions;
  (* Zero comparable fields means the snapshots share nothing — wrong file,
     wrong schema, or a bench that silently wrote no kernels.  That is a
     broken gate, not a pass. *)
  if !compared = 0 then die "bench-diff: no comparable fields between %s and %s" old_path new_path;
  exit (if !regressions = 0 then 0 else 1)
