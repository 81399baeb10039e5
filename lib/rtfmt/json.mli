(** Minimal JSON values, printer, parser, and encoders for analysis
    results — so other tooling can consume the CLI's output without
    scraping tables.

    Only what the CLI needs: UTF-8 pass-through strings with standard
    escapes, integer numbers (all quantities in this repository are
    integers or rationals printed as strings). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** [indent] (default true) pretty-prints with two-space indentation. *)

val output : ?indent:bool -> out_channel -> t -> unit
(** [output oc t] writes [to_string t] to [oc], byte for byte, without
    building the whole string: the same writer hands its buffer to the
    channel every 64 KB or so.  Does not flush [oc]. *)

exception Parse_error of string

val parse : string -> t
(** Strict parser for the subset {!to_string} emits (numbers must be
    integers).  @raise Parse_error on malformed input. *)

val member : string -> t -> t
(** Object field access.  @raise Not_found when absent or not an object. *)

val of_stats : Rtlb_obs.Stats.t -> t
(** Observability summary: span totals, counter glossary values and
    per-worker chunk accounting, as nested objects. *)

val of_analysis : ?stats:Rtlb_obs.Stats.t -> Rtlb.Analysis.t -> t
(** Structured rendering of a full four-step analysis: task windows,
    per-resource bounds with witnesses and partitions, and the cost
    outcome.  With [?stats] (a traced run's summary), a trailing
    ["stats"] object is appended — omitted otherwise, so untraced
    output is byte-identical to earlier versions. *)

val output_analysis :
  ?stats:Rtlb_obs.Stats.t -> out_channel -> Rtlb.Analysis.t -> unit
(** [output_analysis oc a] writes [to_string (of_analysis a)] to [oc],
    byte for byte, without building the tree: the analysis is walked
    straight into the writer ([of_analysis] assembles its tree from the
    same walk).  Does not flush [oc]. *)

val of_schedule : Rtlb.App.t -> Sched.Schedule.t -> t

val of_whatif : base:Rtlb.Analysis.t -> edited:Rtlb.Analysis.t -> t
(** What-if reply: per-resource [base_lb]/[lb]/[delta] rows, a
    top-level [partial] flag, and the full edited analysis under
    ["edited"] — shared by [rtlb whatif --json] and the serve daemon so
    both surfaces emit byte-identical results. *)
