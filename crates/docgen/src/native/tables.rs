//! Skeleton-then-fill construction of the row/column relation table.
//!
//! "We constructed the skeleton of the table, the `<tr>` and `<td>` elements
//! (with nothing inside them), in a straightforward loop, and stored
//! references to the `<td>`s in a two-dimensional array. Then we filled in
//! the corner, the row titles, the column titles, and the values, each in a
//! separate loop."

use crate::trouble::GenTrouble;
use crate::GenInputs;
use awb::NodeRef;
use xmlstore::{NodeId, Store};

/// Builds the `<table>` for `<awb-table rows=… cols=… relation=… corner=…/>`.
pub fn build_awb_table(
    out: &mut Store,
    inputs: &GenInputs,
    rows: &[NodeRef],
    cols: &[NodeRef],
    relation: &str,
    corner: &str,
) -> Result<NodeId, GenTrouble> {
    let err = |e: xmlstore::XmlError| GenTrouble::new(format!("internal output-tree error: {e}"));

    // Pass 1: the skeleton — every <tr>/<td> empty, references kept in a
    // two-dimensional array.
    let table = out.create_element("table").map_err(err)?;
    out.set_attribute(table, "class", "awb-table")
        .map_err(err)?;
    let n_rows = rows.len() + 1;
    let n_cols = cols.len() + 1;
    let mut cells: Vec<Vec<NodeId>> = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let tr = out.create_element("tr").map_err(err)?;
        out.append_child(table, tr).map_err(err)?;
        let mut row_cells = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let td = out.create_element("td").map_err(err)?;
            out.append_child(tr, td).map_err(err)?;
            row_cells.push(td);
        }
        cells.push(row_cells);
    }

    let set_text = |out: &mut Store, td: NodeId, text: String| -> Result<(), GenTrouble> {
        if text.is_empty() {
            return Ok(());
        }
        let t = out.create_text(text).map_err(err)?;
        out.append_child(td, t).map_err(err)
    };

    // Pass 2: the corner.
    set_text(out, cells[0][0], corner.to_string())?;

    // Pass 3: the column titles.
    for (j, &col) in cols.iter().enumerate() {
        set_text(out, cells[0][j + 1], inputs.model.label(col).to_string())?;
    }

    // Pass 4: the row titles.
    for (i, &row) in rows.iter().enumerate() {
        set_text(out, cells[i + 1][0], inputs.model.label(row).to_string())?;
    }

    // Pass 5: the values — "no need to mingle the computations of row titles
    // and cell values."
    for (i, &row) in rows.iter().enumerate() {
        let targets = inputs.model.follow_forward(row, relation, inputs.meta);
        for (j, &col) in cols.iter().enumerate() {
            let count = targets.iter().filter(|&&t| t == col).count();
            if count > 0 {
                set_text(out, cells[i + 1][j + 1], count.to_string())?;
            }
        }
    }

    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use awb::Model;

    #[test]
    fn skeleton_fill_matches_papers_shape() {
        let mut meta = awb::Metamodel::new();
        meta.add_node_type("R", None, vec![]);
        meta.add_node_type("C", None, vec![]);
        meta.add_relation_type("rel", None, vec![]);
        let mut model = Model::new();
        let r1 = model.add_node("R", "row title 1");
        let r2 = model.add_node("R", "row title 2");
        let c1 = model.add_node("C", "col title 1");
        let c2 = model.add_node("C", "col title 2");
        model.add_relation("rel", r1, c1);
        model.add_relation("rel", r1, c2);
        model.add_relation("rel", r2, c2);
        model.add_relation("rel", r2, c2);

        let template = Template::parse("<template/>").unwrap();
        let inputs = GenInputs {
            model: &model,
            meta: &meta,
            template: &template,
        };
        let mut out = Store::new();
        let table =
            build_awb_table(&mut out, &inputs, &[r1, r2], &[c1, c2], "rel", "row\\col").unwrap();
        assert_eq!(
            out.to_xml(table),
            "<table class=\"awb-table\">\
             <tr><td>row\\col</td><td>col title 1</td><td>col title 2</td></tr>\
             <tr><td>row title 1</td><td>1</td><td>1</td></tr>\
             <tr><td>row title 2</td><td/><td>2</td></tr>\
             </table>"
        );
    }
}
