(* Quickstart: wire a brand-new domain into the synthesizer in ~40 lines.

     dune exec examples/quickstart.exe

   An NLU-driven synthesizer needs three inputs (paper §II): the domain's
   grammar in BNF, a reference document describing each API, and a query.
   No training data, no examples — just the things a human would read. *)

open Dggt_core

(* 1. The target DSL's grammar. Terminals (here: ALL-CAPS) are the APIs;
   the first terminal of a rule is a call whose remaining symbols are its
   arguments. *)
let grammar_bnf =
  {|
cmd      ::= play | stopcmd ;
play     ::= PLAY song where ;
stopcmd  ::= STOP where ;
song     ::= TRACK | ALBUM | PLAYLIST ;
where    ::= KITCHEN | BEDROOM | EVERYWHERE ;
|}

(* 2. The API reference document — the prose a user manual would contain. *)
let doc =
  Apidoc.make ~literal_apis:[ "TRACK" ]
    [
      ("PLAY", "play or start music");
      ("STOP", "stop or pause the music");
      ("TRACK", "a single song or track with the given title");
      ("ALBUM", "a whole album");
      ("PLAYLIST", "a playlist of songs");
      ("KITCHEN", "the speaker in the kitchen");
      ("BEDROOM", "the speaker in the bedroom");
      ("EVERYWHERE", "all speakers everywhere in the house");
    ]

let () =
  let cfg =
    match Dggt_grammar.Cfg.of_text ~start:"cmd" grammar_bnf with
    | Ok c -> c
    | Error e -> Fmt.failwith "grammar: %a" Dggt_grammar.Cfg.pp_error e
  in
  let graph = Dggt_grammar.Ggraph.build cfg in
  let engine = Engine.default Engine.Dggt_alg in
  let tgt = Engine.target (Dggt_autom.Autom.compile graph) doc in
  (* 3. Queries. *)
  [
    "play \"Blue in Green\" in the kitchen";
    "play the album in the bedroom";
    "stop the music everywhere";
  ]
  |> List.iter (fun query ->
         let o =
           Engine.respond { Engine.cfg = engine; target = tgt }
             { Engine.input = Engine.Text query; mode = Engine.Plain }
         in
         Format.printf "%-48s =>  %s  (%.1f ms)@." query
           (Option.value o.Engine.code ~default:"<no codelet>")
           (o.Engine.time_s *. 1000.))
