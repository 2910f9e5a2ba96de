//! Canned document templates shared by the examples, the integration tests,
//! and the benchmark harness.

/// The "System Context" work product for IT-architecture models. It lives
/// beside the template parser so the generators' own tests can use it.
pub use docgen::template::SYSTEM_CONTEXT;

/// A catalogue work product for the antique-glass-dealer retarget.
pub const GLASS_CATALOGUE: &str = r#"<template>
  <h1>Catalogue</h1>
  <table-of-contents/>
  <section heading="Pieces">
    <for nodes="all.GlassPiece">
      <div class="piece">
        <b><label/></b>
        <if>
          <test> <has-property name="condition"/> </test>
          <then> <span class="cond"><value-of property="condition"/></span> </then>
          <else> <span class="cond unknown">condition unrecorded</span> </else>
        </if>
        <span class="year"><value-of property="year" default="undated"/></span>
      </div>
    </for>
  </section>
  <section heading="Favourites">
    <list>
      <query>
        <start type="Customer"/>
        <follow relation="likes"/>
        <filter-type type="GlassPiece"/>
        <dedup/>
        <sort-by-label/>
      </query>
    </list>
  </section>
  <section heading="Record keeping">
    <table-of-omissions types="GlassPiece"/>
  </section>
</template>"#;

/// A deliberately fault-heavy template: `<value-of>` without defaults over
/// types where properties are missing. Used by the error-handling
/// experiments (E3).
pub const FAULTY_DOCUMENT_LIST: &str = r#"<template>
  <h1>Documents</h1>
  <for nodes="all.Document">
    <p><label/> is at version <value-of property="version"/>.</p>
  </for>
</template>"#;

/// Parameterized template builder: `sections` sections, each looping over
/// the users. Used by the multi-phase scaling experiment (E2).
pub fn scaling_template(sections: usize) -> String {
    let mut t = String::from("<template>\n  <table-of-contents/>\n");
    for i in 0..sections {
        t.push_str(&format!(
            "  <section heading=\"Section {i}\">\n    <for nodes=\"all.user\"><p><label/></p></for>\n  </section>\n"
        ));
    }
    t.push_str("  <table-of-omissions types=\"Document\"/>\n</template>\n");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use docgen::Template;

    #[test]
    fn canned_templates_parse() {
        Template::parse(SYSTEM_CONTEXT).unwrap();
        Template::parse(GLASS_CATALOGUE).unwrap();
        Template::parse(FAULTY_DOCUMENT_LIST).unwrap();
        Template::parse(&scaling_template(5)).unwrap();
    }

    #[test]
    fn scaling_template_scales() {
        let small = scaling_template(2);
        let large = scaling_template(20);
        assert_eq!(small.matches("<section").count(), 2);
        assert_eq!(large.matches("<section").count(), 20);
    }
}
