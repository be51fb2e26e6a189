(** Pluggable search strategies behind one interface.

    The paper's search is a fixed breadth-first descent over the precision
    hierarchy ({!Bfs}); this module makes the {e policy} pluggable. Every
    strategy is a wave machine ({!Bfs.S}) on the one campaign driver
    ({!Bfs.drive}), so the harness/pool/fleet evaluation path, shadow
    reports, execution counts, the precision-format lattice, checkpoints,
    stop requests and the result statistics are the same for all of them.

    [bfs] is {!Bfs.machine} itself. The others search the flat candidate
    set: the driver evaluates the waves they propose (on the caller's pool
    when one is supplied, sequentially otherwise, always with per-item
    verdict containment) and they consume the verdicts until no work is
    left. Their finish composes the accepted set exactly like {!Bfs} does —
    union evaluation, optional greedy second-phase composition — plus a
    greedy {e top-up} sweep (every still-double candidate gets one chance
    on top of the final set) and a per-instruction lattice descent, so
    every strategy ends maximal over the same move set and the "no worse
    than BFS" bake-off assertion is an apples-to-apples comparison.

    Checkpoints written by the flat strategies carry a [strategy] tag
    ({!Checkpoint.snapshot}) and refuse to resume under a different
    strategy; untagged (pre-strategy) snapshots load as [bfs]. *)

(** {1 Strategy tokens} *)

type token =
  | Bfs  (** the paper's breadth-first structural descent, verbatim *)
  | Split  (** count-weighted binary splitting over the flat candidate set *)
  | Delta  (** Precimonious-style delta-debugging with shrinking partitions *)
  | Anneal of int
      (** shadow-seeded greedy descent with bounded random restarts;
          deterministic from the explicit seed *)

val default_seed : int
(** Seed [anneal] uses when none is given (the token ["anneal"]). *)

val of_string : string -> (token, string) result
(** Parse a strategy token: [""] and ["bfs"] are {!token.Bfs}; ["split"],
    ["delta"], ["anneal"], ["anneal:<seed>"] as expected. Anything else is
    a descriptive [Error] — the typed validation the scheduler and CLI
    apply to submitted strategy tokens. *)

val to_string : token -> string
(** Inverse of {!of_string} ([Anneal default_seed] prints ["anneal"]). *)

val known : string list
(** The canonical token spellings, for help strings. *)

(** {1 Running} *)

val machine : token -> (module Bfs.S)
(** The wave machine behind a token. *)

val run : ?options:Bfs.options -> token -> Bfs.Target.t -> Bfs.result
(** [Bfs.drive (machine token)]; [run Bfs] is [Bfs.search]. *)
