(* The generator is a function of its seed, it knows every workload
   BENCHMARK.json lists, and every metric name there is well formed.
   Runs at a small run length so it stays fast under [dune runtest]. *)

let () =
  let spec = Perfbench.Spec.load "../BENCHMARK.json" in
  List.iter
    (fun name ->
      if not (List.mem name Perfbench.Gen.names) then
        failwith (name ^ ": listed in BENCHMARK.json, unknown to Gen"))
    spec.workloads;
  List.iter
    (fun name ->
      let make seed = Perfbench.Gen.files (Perfbench.Gen.make ~name ~seed ~seconds:1.) in
      let a = make 7 and b = make 7 in
      if a <> b then failwith (name ^ ": one seed gave different inputs");
      if make 8 = a then failwith (name ^ ": two seeds gave the same inputs"))
    Perfbench.Gen.names;
  let all = spec.end_to_end @ spec.per_layer in
  List.iter
    (fun (name, _) ->
      if not (Perfbench.Spec.valid name) then
        failwith (Printf.sprintf "metric name %S is not [A-Za-z0-9_.-]+" name))
    all;
  if List.length (List.sort_uniq compare (List.map fst all)) <> List.length all
  then failwith "a metric name is used twice";
  print_endline "perfbench generator and names: ok"
