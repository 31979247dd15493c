(* In-memory spans recorded by the benchmark around its own calls into
   the program's layers.  Nothing is written until the run ends, so the
   traced window pays one allocation per span and no I/O. *)

type span = {
  name : string;
  req : int;  (** the request (or replayed instance) the span belongs to *)
  idx : int;
  parent : int;  (** [idx] of the enclosing span, -1 at the root *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let count = ref 0
let open_ : int list ref = ref []

let with_span ~req name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_ with p :: _ -> p | [] -> -1 in
    let s =
      { name; req; idx = !count; parent; start = Emts_obs.Clock.now (); stop = nan }
    in
    incr count;
    recorded := s :: !recorded;
    open_ := s.idx :: !open_;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Emts_obs.Clock.now ();
        open_ := List.tl !open_)
      f
  end

let all () = List.rev !recorded

(* A span's self time: its duration minus the part its children cover.
   Children run inside their parent and one after another, so the part
   they cover is the sum of their durations. *)
let self_times () =
  let spans = all () in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt covered s.idx) in
      (s, s.stop -. s.start -. kids))
    spans

(* Self times of every span called [name], in seconds, per request. *)
let self_of name =
  List.filter_map
    (fun (s, self) -> if s.name = name then Some (s.req, self) else None)
    (self_times ())

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"name\":%S,\"req\":%d,\"id\":%d,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n"
            s.name s.req s.idx s.parent (s.start *. 1e6) (s.stop *. 1e6))
        (all ()))
