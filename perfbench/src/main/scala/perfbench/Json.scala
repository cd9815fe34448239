package perfbench

import java.nio.file.{Files, Path}

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import com.fasterxml.jackson.module.scala.DefaultScalaModule

/** JSON through Jackson and its Scala module, which writes Scala maps,
  * sequences and tuples directly. Maps keep insertion order when given a
  * `ListMap` or a `LinkedHashMap`, so printed metric objects follow the
  * declared order.
  */
object Json {

  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)

  def write(v: Any): String = mapper.writeValueAsString(v)

  def writeFile(path: Path, v: Any): Unit = {
    Files.createDirectories(path.getParent)
    Files.writeString(path, write(v) + "\n")
  }

  def read(path: Path): JsonNode = mapper.readTree(path.toFile)

  def fields(n: JsonNode): Seq[(String, JsonNode)] =
    n.properties().asScala.map(e => e.getKey -> e.getValue).toSeq

  def elements(n: JsonNode): Seq[JsonNode] = n.elements().asScala.toSeq
}
