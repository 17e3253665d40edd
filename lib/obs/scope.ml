module Dls = Domain.DLS

type progress = { after : int; batch : int; running_mean : float; running_std_err : float }
type t = { args : (string * string) list; sink : progress -> unit; cells : int Atomic.t array }

(* One cell per counter registered so far; counters register at module
   initialisation, before any scope exists. *)
let slots = Atomic.make 0
let slot () = Atomic.fetch_and_add slots 1

let create ~args ~sink =
  { args; sink; cells = Array.init (Atomic.get slots) (fun _ -> Atomic.make 0) }

let key : t option Dls.key = Dls.new_key (fun () -> None)
let current () = Dls.get key

let within s fn =
  let saved = Dls.get key in
  Dls.set key s;
  Fun.protect ~finally:(fun () -> Dls.set key saved) fn

let add ix n =
  match Dls.get key with
  | Some s when ix < Array.length s.cells -> ignore (Atomic.fetch_and_add s.cells.(ix) n)
  | _ -> ()

let count s ix = if ix < Array.length s.cells then Atomic.get s.cells.(ix) else 0
let args () = match Dls.get key with None -> [] | Some s -> s.args
let progress p = match Dls.get key with None -> () | Some s -> s.sink p
