type t = { id : string; title : string; paper_ref : string; run : unit -> unit }

let registry : t list ref = ref []

let register e =
  if List.exists (fun e' -> String.equal e'.id e.id) !registry then
    invalid_arg ("Experiment.register: duplicate id " ^ e.id);
  registry := !registry @ [ e ]

let all () = !registry

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.equal (String.lowercase_ascii e.id) id) !registry

let banner e =
  let line = String.make 72 '=' in
  Printf.printf "%s\n%s: %s  [%s]\n%s\n%!" line (String.uppercase_ascii e.id) e.title
    e.paper_ref line

let run_ids ids =
  let to_run =
    match ids with
    | [] -> all ()
    | ids ->
        List.map
          (fun id ->
            match find id with
            | Some e -> e
            | None ->
                let known = String.concat ", " (List.map (fun e -> e.id) (all ())) in
                failwith (Printf.sprintf "unknown experiment %S (known: %s)" id known))
          ids
  in
  List.iter
    (fun e ->
      banner e;
      let (), secs = Pk_util.Measure.time e.run in
      Printf.printf "(%s completed in %.1fs)\n\n%!" e.id secs)
    to_run

(* Empty counts as unset, so a variable can be cleared with putenv. *)
let env_positive name parse positive =
  match Option.map String.trim (Sys.getenv_opt name) with
  | None | Some "" -> None
  | Some s -> (
      match parse s with
      | Some v when positive v -> Some v
      | _ -> invalid_arg (Printf.sprintf "%s=%S: expected a positive number" name s))

let env_int name = env_positive name int_of_string_opt (fun v -> v > 0)
let env_float name = env_positive name float_of_string_opt (fun v -> Float.is_finite v && v > 0.0)

let scale () = Option.value (env_float "PK_SCALE") ~default:1.0

let scaled_keys default =
  match env_int "PK_KEYS" with
  | Some n -> n
  | None -> max 1000 (int_of_float (float_of_int default *. scale ()))

let scaled_lookups default =
  match env_int "PK_LOOKUPS" with
  | Some n -> n
  | None -> max 100 (int_of_float (float_of_int default *. scale ()))
