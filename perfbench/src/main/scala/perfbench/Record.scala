package perfbench

import java.nio.file.Path

import repro.bench.Experiments
import repro.core.{IntervalEvaluator, PaperQueries, Parser}
import repro.tpg.FigureOne

/** Records `goldens.json` from the engine at the current commit, after
  * confirming that its Figure-1 tables digest to the paper's.
  */
object Record {

  def run(build: Path, out: Path): Int = {
    val spark = Settings.session(build)
    try {
      val fig = FigureOne.itpg(spark)
      Experiments.warm(fig)
      val mismatched = Goldens.fig1Tables.keys.toSeq.sorted.filter { q =>
        val engine = Goldens.read(Goldens.countAndDigest(
          Bench.bindingTable(fig, Parser.parseMatch(PaperQueries.all.toMap.apply(q)))))
        val paper = Goldens.fig1(q)
        println(s"fig1 $q engine=$engine paper=$paper")
        engine != paper
      }
      require(mismatched.isEmpty, s"engine differs from the paper on ${mismatched.mkString(", ")}")

      val pairs = Workload.pairExprs.map { case (name, (_, path)) =>
        val ms = new IntervalEvaluator(fig).evalPoints(path).collect()
          .map(r => (r.getLong(0), r.getInt(1), r.getLong(2), r.getInt(3))).toSet
        println(s"pairs $name members=${ms.size}")
        name -> ms
      }.toMap

      Json.writeFile(out, Goldens.toJson(pairs))
      println(s"wrote $out")
      0
    } finally spark.stop()
  }
}
