(* Domain-safety checker, run by `dune build @check`:

     check_lazy.exe DIR...

   fails if any .ml/.mli file under the given directories uses the
   [lazy] keyword or the [Lazy] module.  OCaml 5 [Lazy.force] is not
   domain-safe: two domains forcing one suspension raise
   [CamlinternalLazy.Undefined].  The engines' per-run state is shared
   by site visits running on the domain pool (docs/PARALLELISM.md), so
   it is built eagerly before the first round; this check keeps it
   that way.  Comments, string literals and character literals are
   skipped, so prose about laziness is fine.  Exits 1 listing every
   use found. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let is_ident c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [(line, word)] for every [lazy] / [Lazy] token outside comments,
   strings and character literals. *)
let scan text =
  let n = String.length text in
  let found = ref [] in
  let line = ref 1 in
  let at i s =
    i + String.length s <= n && String.sub text i (String.length s) = s
  in
  (* Advance past a string literal starting after its opening quote. *)
  let rec string_end i =
    if i >= n then i
    else
      match text.[i] with
      | '"' -> i + 1
      | '\\' -> string_end (i + 2)
      | '\n' ->
          incr line;
          string_end (i + 1)
      | _ -> string_end (i + 1)
  in
  (* Advance past a (nested) comment starting after its opening. *)
  let rec comment_end depth i =
    if i >= n then i
    else if at i "(*" then comment_end (depth + 1) (i + 2)
    else if at i "*)" then
      if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
    else
      match text.[i] with
      | '"' -> comment_end depth (string_end (i + 1))
      | '\n' ->
          incr line;
          comment_end depth (i + 1)
      | _ -> comment_end depth (i + 1)
  in
  let rec go i =
    if i < n then
      if at i "(*" then go (comment_end 1 (i + 2))
      else
        match text.[i] with
        | '"' -> go (string_end (i + 1))
        | '\'' when i + 2 < n && text.[i + 2] = '\'' -> go (i + 3)
        | '\'' when i + 1 < n && text.[i + 1] = '\\' ->
            let j = ref (i + 3) in
            while !j < n && text.[!j] <> '\'' do
              incr j
            done;
            go (!j + 1)
        | '\n' ->
            incr line;
            go (i + 1)
        | c when is_ident c ->
            let j = ref i in
            while !j < n && is_ident text.[!j] do
              incr j
            done;
            let word = String.sub text i (!j - i) in
            if word = "lazy" || word = "Lazy" then
              found := (!line, word) :: !found;
            go !j
        | _ -> go (i + 1)
  in
  go 0;
  List.rev !found

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then source_files path
         else if
           Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  if dirs = [] then begin
    prerr_endline "usage: check_lazy DIR...";
    exit 2
  end;
  let uses =
    List.concat_map
      (fun path ->
        List.map
          (fun (line, word) -> Printf.sprintf "%s:%d: %s" path line word)
          (scan (read_file path)))
      (List.concat_map source_files dirs)
  in
  match uses with
  | [] -> ()
  | _ ->
      List.iter prerr_endline uses;
      prerr_endline
        "check_lazy: lazy values are not domain-safe in OCaml 5; build the \
         value eagerly before the round that shares it";
      exit 1
