(* The benchmark's side of the wire: serving processes it starts and
   stops, one client connection, and scrapes of what the processes
   export (the stats and metrics verbs, /proc). *)

module P = Emts_serve.Protocol
module J = Emts_resilience.Json

(* ------------------------------------------------------------------ *)
(* Processes *)

let children : int list ref = ref []

let spawn ~log exe args =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd)
  in
  children := pid :: !children;
  pid

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* SIGTERM asks for a graceful drain; a process still running after
   [grace] seconds is killed.  Either way it is reaped before return. *)
let stop ?(grace = 10.) pid =
  if List.mem pid !children then begin
    children := List.filter (( <> ) pid) !children;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let until = Emts_obs.Clock.now () +. grace in
    let rec wait () =
      match waitpid_noeintr [ Unix.WNOHANG ] pid with
      | 0, _ when Emts_obs.Clock.now () < until ->
        Unix.sleepf 0.001;
        wait ()
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_noeintr [] pid)
      | _ -> ()
    in
    try wait () with Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  end

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_noeintr [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* utime + stime of a process and all its threads, in seconds.  Linux
   reports them in clock ticks of 1/100 s. *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* Fields after the parenthesised command name, starting at field 3
     (state); utime and stime are fields 14 and 15. *)
  let after = String.rindex line ')' + 2 in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub line after (String.length line - after))) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else find ()
      in
      find ())

(* ------------------------------------------------------------------ *)
(* Client *)

let connect path = Emts_serve.Endpoint.connect_fd (Emts_serve.Endpoint.Unix_socket path)

let read_reply fd =
  match P.read_frame fd ~max_size:P.default_max_frame with
  | Ok payload -> payload
  | Error e -> failwith ("reply frame: " ^ P.frame_error_to_string e)

let decode payload =
  match P.Response.of_string payload with
  | Ok r -> r
  | Error m -> failwith ("reply payload: " ^ m)

let roundtrip fd req =
  P.write_frame fd (P.Request.to_string req);
  decode (read_reply fd)

let with_conn path f =
  let fd = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

(* Poll a starting process's socket until its health verb answers
   ready.  Returns false after [timeout] seconds. *)
let wait_ready ?(timeout = 20.) path =
  let until = Emts_obs.Clock.now () +. timeout in
  let rec poll () =
    let ready =
      try
        with_conn path (fun fd ->
            match roundtrip fd (P.Request.Health { id = J.Null }) with
            | P.Response.Health { ready; _ } -> ready
            | _ -> false)
      with Unix.Unix_error _ | Failure _ -> false
    in
    if ready then true
    else if Emts_obs.Clock.now () > until then false
    else (Unix.sleepf 0.0002; poll ())
  in
  poll ()

let stats fd =
  match roundtrip fd (P.Request.Stats { id = J.Null }) with
  | P.Response.Stats { stats; _ } -> stats
  | _ -> failwith "stats: unexpected reply"

let metrics_text fd =
  match roundtrip fd (P.Request.Metrics { id = J.Null }) with
  | P.Response.Metrics { body; _ } -> body
  | _ -> failwith "metrics: unexpected reply"

let num section name doc =
  match Option.bind (J.member section doc) (J.member name) with
  | Some v -> Result.value ~default:0. (J.to_float v)
  | None -> 0.

let counter = num "counters"
let gauge = num "gauges"

(* Per-backend snapshots in the router's fan-out stats. *)
let backends doc =
  match Option.map J.to_obj (J.member "backends" doc) with
  | Some (Ok fields) -> List.map snd fields
  | _ -> []

(* Non-cumulative bucket counts (keyed by upper bound) of one
   OpenMetrics histogram, e.g. [serve.solve_s]. *)
let buckets body metric =
  let prefix =
    "emts_" ^ String.map (fun c -> if c = '.' then '_' else c) metric ^ "_bucket{le=\""
  in
  let cum =
    List.filter_map
      (fun line ->
        if String.starts_with ~prefix line then
          let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
          Scanf.sscanf rest "%[^\"]\"} %d" (fun le n ->
              if le = "+Inf" then None else Some (float_of_string le, n))
        else None)
      (String.split_on_char '\n' body)
  in
  let sorted = List.sort compare cum in
  let _, per =
    List.fold_left (fun (prev, acc) (le, n) -> (n, (le, n - prev) :: acc)) (0, []) sorted
  in
  List.rev per

(* Buckets filled between two scrapes. *)
let window_buckets ~before ~after =
  List.filter_map
    (fun (le, n) ->
      let n0 = Option.value ~default:0 (List.assoc_opt le before) in
      if n - n0 > 0 then Some (le, n - n0) else None)
    after
