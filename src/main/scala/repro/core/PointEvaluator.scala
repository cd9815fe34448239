package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.tpg.Tpg
import Ast._

/** The polynomial-time point-based evaluation algorithm of Theorem C.1,
  * expressed as DataFrame dataflow.
  *
  * Every AST node denotes a relation of 4-tuples `(o1, t1, o2, t2)` over
  * PTO(G) = (N ∪ E) × Ω (existence is *not* implied — the formal semantics
  * navigates through non-existing temporal objects unless `∃` is tested).
  * Concatenation is an equi-join (Spark's sort-merge join — literally the
  * paper's "sort-merge join on two tables"), numerical occurrence
  * indicators are rewritten by [[Repetition.unfold]] (Algorithms 1–2), and
  * `[0,_]` squares to a fixpoint.
  *
  * This evaluator is the reference/baseline; the interval evaluator must
  * agree with it on every expression (cross-checked in tests).
  */
final class PointEvaluator(g: Tpg) {

  private val omega = g.omega
  private val memo = scala.collection.mutable.HashMap.empty[Path, DataFrame]
  private val memoT = scala.collection.mutable.HashMap.empty[Test, DataFrame]

  /** Identity relation over PTO(G). */
  lazy val idRel: DataFrame =
    g.objects.select("id").crossJoin(omega)
      .select(col("id").as("o1"), col("t").as("t1"), col("id").as("o2"), col("t").as("t2"))
      .cache()

  private object ops extends RelOps {
    def id: DataFrame = idRel
    def compose(a: DataFrame, b: DataFrame): DataFrame = {
      val l = a.select(col("o1"), col("t1"), col("o2").as("_mo"), col("t2").as("_mt"))
      val r = b.select(col("o1").as("_mo"), col("t1").as("_mt"), col("o2"), col("t2"))
      l.join(r, Seq("_mo", "_mt")).select("o1", "t1", "o2", "t2").distinct()
    }
    def union(a: DataFrame, b: DataFrame): DataFrame =
      a.select("o1", "t1", "o2", "t2").unionByName(b.select("o1", "t1", "o2", "t2")).distinct()
  }

  /** Temporal objects satisfying `test`, as `(id, t)`. */
  def testSat(test: Test): DataFrame = memoT.getOrElseUpdate(test, test match {
    case IsNode       => g.objects.filter(col("kind") === "N").select("id").crossJoin(omega)
    case IsEdge       => g.objects.filter(col("kind") === "E").select("id").crossJoin(omega)
    case HasLabel(l)  => g.objects.filter(col("label") === l).select("id").crossJoin(omega)
    case PropIs(p, v) => g.propP(p, v)
    case Lt(k)        => g.objects.select("id").crossJoin(omega.filter(col("t") < k))
    case Exists       => g.existP
    case And(a, b)    => testSat(a).join(testSat(b), Seq("id", "t"), "left_semi")
    case Or(a, b)     => testSat(a).unionByName(testSat(b)).distinct()
    case Not(x) =>
      g.objects.select("id").crossJoin(omega).join(testSat(x), Seq("id", "t"), "left_anti")
    case PathCond(p) => eval(p).select(col("o1").as("id"), col("t1").as("t")).distinct()
  })

  /** `[[path]]_G` as `(o1, t1, o2, t2)`. */
  def eval(path: Path): DataFrame = memo.getOrElseUpdate(path, path match {
    case Tst(True) => idRel
    case Tst(t) =>
      testSat(t).select(col("id").as("o1"), col("t").as("t1"),
                        col("id").as("o2"), col("t").as("t2"))
    case F =>
      val e = g.objects.filter(col("kind") === "E")
      val fromSrc = e.select(col("src").as("o1"), col("id").as("o2"))
      val toDst   = e.select(col("id").as("o1"), col("dst").as("o2"))
      fromSrc.unionByName(toDst).crossJoin(omega)
        .select(col("o1"), col("t").as("t1"), col("o2"), col("t").as("t2"))
    case B => converse(eval(F))
    case Nx =>
      g.objects.select("id").crossJoin(omega.filter(col("t") < g.omegaHi))
        .select(col("id").as("o1"), col("t").as("t1"),
                col("id").as("o2"), (col("t") + 1).as("t2"))
    case Pv => converse(eval(Nx))
    case Concat(a, b)       => ops.compose(eval(a), eval(b))
    case Union(a, b)        => ops.union(eval(a), eval(b))
    case Repeat(p, 0, None) => Repetition.closure(eval(p), ops)
    case rep: Repeat        => eval(Repetition.unfold(rep))
  })

  /** `{(o2,t2,o1,t1) | (o1,t1,o2,t2) ∈ r}` — `B` from `F`, `P` from `N`. */
  private def converse(r: DataFrame): DataFrame =
    r.select(col("o2").as("o1"), col("t2").as("t1"), col("o1").as("o2"), col("t1").as("t2"))
}
