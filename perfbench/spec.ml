(* The benchmark's workloads and metrics, read from BENCHMARK.json at
   the repository root: the names and units live in that one file. *)

module J = Emts_resilience.Json

type t = {
  workloads : string list;
  end_to_end : (string * string) list;  (** (name, unit) *)
  per_layer : (string * string) list;
}

let load path =
  let get what = function Ok v -> v | Error m -> failwith (path ^ ": " ^ what ^ ": " ^ m) in
  let doc = get "parse" (J.of_string (In_channel.with_open_bin path In_channel.input_all)) in
  let field key obj =
    match J.member key obj with Some v -> v | None -> failwith (path ^ ": no field " ^ key)
  in
  let str key obj = get key (J.to_str (field key obj)) in
  let section key = get key (J.to_list (field key doc)) in
  let metrics key = List.map (fun m -> (str "name" m, str "unit" m)) (section key) in
  {
    workloads = List.map (str "name") (section "workloads");
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

let valid name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name
