//! The XMark corpus size and the query texts the workloads send.

/// Records in the XMark corpus (`XmarkScale::about`): about 300 KB.
pub const CORPUS_NODES: usize = 20_000;

/// A value join: closed auctions matched to a prefix of the people list.
pub const JOIN: &str = "count(for $p in subsequence(/site/people/person, 1, 10) \
     for $a in /site/closed_auctions/closed_auction \
     where $a/buyer/@person = $p/@id return $a)";

/// A streamed prefix over a long item list.
pub const STREAM: &str = "count(subsequence(/site/regions/africa/item, 1, 16))";

/// A keyed lookup: one person's name by `@id`.
pub fn point(person: usize) -> String {
    format!("string(/site/people/person[@id = \"person{person}\"]/name)")
}

/// The same lookup under a text no one has sent before: the tag makes it
/// unique, so the service must compile it.
pub fn cold(person: usize, tag: &str) -> String {
    format!("concat(string(/site/people/person[@id = \"person{person}\"]/name), \"|{tag}\")")
}

/// The `touched` attribute of one item.
pub fn item_attribute(id: &str) -> String {
    format!("string(/site/regions/*/item[@id = \"{id}\"]/@touched)")
}

/// Elements in a service client's small editable document.
pub const EDITABLE_ELEMENTS: usize = 200;

/// The editable document with each element's `v` attribute.
pub fn editable_doc(values: &[u64]) -> String {
    let mut s = String::from("<edit>");
    for (i, v) in values.iter().enumerate() {
        s.push_str(&format!("<e i=\"{i}\" v=\"{v}\"/>"));
    }
    s.push_str("</edit>");
    s
}

/// Reads element `i`'s `v` attribute back.
pub fn editable_read(i: usize) -> String {
    format!("string(/edit/e[@i = \"{i}\"]/@v)")
}
