(* Writing a bench result file: render the document, read the file back,
   and validate what landed on disk.  [noun] names what the validator
   counts ("runs" or "cases"); an invalid file exits the process with
   status 1, which fails the make target that wrote it. *)
let emit ~path ~noun ~validate doc =
  let oc = open_out path in
  output_string oc (Statsutil.Json.to_string doc);
  close_out oc;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match validate s with
  | Ok n -> Printf.printf "wrote %s (%d %s, validated)\n" path n noun
  | Error msg ->
    Printf.eprintf "BENCH JSON INVALID (%s): %s\n" path msg;
    exit 1
